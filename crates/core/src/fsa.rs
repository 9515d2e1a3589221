//! The finite state automaton (FSA) model of one site's protocol.
//!
//! Following the paper's formal model, transaction execution at each site is
//! a nondeterministic FSA whose input/output tape is the network. A state
//! transition reads a (nonempty) string of messages addressed to the site,
//! writes a string of messages, and moves to the next local state. The
//! change of local state is instantaneous and — absent site failures —
//! atomic. Transitions at one site are asynchronous with respect to
//! transitions at other sites.
//!
//! The FSAs of commit protocols have these properties (paper §"Properties of
//! the FSAs"), all of which `Fsa::validate` enforces:
//!
//! * they are **nondeterministic** (a site may vote yes *or* no on the same
//!   input — we additionally allow `Spontaneous` transitions for purely
//!   internal decisions such as the coordinator's own vote);
//! * their **final states are partitioned** into *abort* and *commit*
//!   states, and both are **irreversible** (final states have no exits);
//! * their state diagrams are **acyclic**.

use std::collections::VecDeque;
use std::fmt;

use crate::error::ProtocolError;
use crate::ids::{MsgKind, SiteId, StateId};

/// Semantic classification of a local state.
///
/// The paper draws its protocols over the canonical alphabet
/// `q` (initial), `w` (wait), `p` (prepared-to-commit buffer), `a` (abort),
/// `c` (commit). The class is what the termination protocol aligns on when
/// coordinator and slave automata have structurally different state spaces.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum StateClass {
    /// `q` — initial state; the site has not voted.
    Initial,
    /// `w` — the site has voted yes and waits for the outcome.
    Wait,
    /// `p` — buffer state ("prepare to commit") introduced to make a
    /// blocking protocol nonblocking.
    Prepared,
    /// `a` — final abort state.
    Aborted,
    /// `c` — final commit state.
    Committed,
    /// Any additional state of a user-defined protocol; the payload
    /// disambiguates multiple custom classes.
    Custom(u8),
}

impl StateClass {
    /// True for the two final classes.
    #[inline]
    pub fn is_final(self) -> bool {
        matches!(self, Self::Aborted | Self::Committed)
    }

    /// Canonical single-letter name used in the paper's figures.
    pub fn letter(self) -> char {
        match self {
            Self::Initial => 'q',
            Self::Wait => 'w',
            Self::Prepared => 'p',
            Self::Aborted => 'a',
            Self::Committed => 'c',
            Self::Custom(_) => 'x',
        }
    }
}

/// Metadata for one local state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateInfo {
    /// Display name, e.g. `"w1"` for the coordinator's wait state.
    pub name: String,
    /// Semantic class (see [`StateClass`]).
    pub class: StateClass,
}

/// A site's vote, recorded as a semantic tag on the transition that casts it.
///
/// The committability analysis (paper §"Committable States") needs to know,
/// for each local state, whether occupancy implies the site has voted yes;
/// the tag makes the vote explicit instead of being inferred from message
/// kinds (the coordinator's own vote is internal and sends no message).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Vote {
    /// The transition casts a yes vote.
    Yes,
    /// The transition casts a no vote (unilateral abort).
    No,
}

/// One message written to the network tape: `kind` addressed to `dst`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Envelope {
    /// Destination site.
    pub dst: SiteId,
    /// Message kind.
    pub kind: MsgKind,
}

impl Envelope {
    /// Construct an envelope.
    pub const fn new(dst: SiteId, kind: MsgKind) -> Self {
        Self { dst, kind }
    }
}

/// The input condition of a transition — which messages it reads.
///
/// Sources may include [`SiteId::CLIENT`] for the external stimulus that
/// starts the protocol ("a transaction is received").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Consume {
    /// A purely internal decision; always enabled while the site occupies
    /// the source state. Used for the coordinator's own no-vote, which the
    /// paper writes parenthesized ("(no₁)") in its figures.
    Spontaneous,
    /// Enabled when *every* listed `(source, kind)` message is outstanding
    /// and addressed to this site; consumes all of them. This models e.g.
    /// the coordinator collecting a yes vote from every slave.
    All(Vec<(SiteId, MsgKind)>),
    /// Enabled when *at least one* of the listed messages is outstanding;
    /// consumes exactly the one that fired. This models e.g. the
    /// coordinator aborting upon the first no vote.
    Any(Vec<(SiteId, MsgKind)>),
    /// Enabled when at least `k` of the listed `(source, kind)` messages
    /// are outstanding and addressed to this site; consumes exactly `k` of
    /// them. This models consensus-style quorum collection — e.g. the
    /// Paxos Commit leader committing once F+1 of the 2F+1 acceptors have
    /// relayed a unanimous-yes acknowledgement (Gray & Lamport, "Consensus
    /// on Transaction Commit"). `Quorum { k: v.len(), .. }` is `All`;
    /// `Quorum { k: 1, .. }` is `Any`.
    Quorum {
        /// How many of the listed messages must be present (and are
        /// consumed).
        k: u32,
        /// The candidate `(source, kind)` pairs; must be distinct.
        srcs: Vec<(SiteId, MsgKind)>,
    },
}

impl Consume {
    /// Convenience: read a single message.
    pub fn one(src: SiteId, kind: MsgKind) -> Self {
        Self::All(vec![(src, kind)])
    }
}

/// One state transition of a site FSA.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Source local state.
    pub from: StateId,
    /// Target local state.
    pub to: StateId,
    /// Messages read.
    pub consume: Consume,
    /// Messages written.
    pub emit: Vec<Envelope>,
    /// Vote cast by this transition, if any.
    pub vote: Option<Vote>,
    /// Human-readable label for figures, e.g. `"yes₂…yesₙ / commit₂…commitₙ"`.
    pub label: String,
}

/// A site's finite state automaton.
///
/// Construct with [`FsaBuilder`]; validate with `Fsa::validate` (the
/// [`Protocol`](crate::protocol::Protocol) validator calls it for every
/// site).
#[derive(Clone, Debug)]
pub struct Fsa {
    /// Role shown in figures, e.g. `"coordinator"`, `"slave"`, `"peer"`.
    pub role: String,
    states: Vec<StateInfo>,
    initial: StateId,
    transitions: Vec<Transition>,
    /// `outgoing[s]` = indices into `transitions` with `from == s`.
    outgoing: Vec<Vec<u32>>,
}

impl Fsa {
    /// The initial local state.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of local states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// All state metadata, indexed by [`StateId`].
    #[inline]
    pub fn states(&self) -> &[StateInfo] {
        &self.states
    }

    /// Metadata for one state.
    #[inline]
    pub fn state(&self, s: StateId) -> &StateInfo {
        &self.states[s.index()]
    }

    /// All transitions.
    #[inline]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions leaving `s`.
    pub fn outgoing(&self, s: StateId) -> impl Iterator<Item = (u32, &Transition)> + '_ {
        self.outgoing[s.index()].iter().map(move |&i| (i, &self.transitions[i as usize]))
    }

    /// True if `s` is a final (commit or abort) state.
    #[inline]
    pub(crate) fn is_final(&self, s: StateId) -> bool {
        self.state(s).class.is_final()
    }

    /// True if `s` is the commit state.
    #[inline]
    pub fn is_commit(&self, s: StateId) -> bool {
        self.state(s).class == StateClass::Committed
    }

    /// Find the (first) state with the given class, if any.
    #[cfg(test)]
    pub(crate) fn state_of_class(&self, class: StateClass) -> Option<StateId> {
        self.states.iter().position(|i| i.class == class).map(|i| StateId(i as u32))
    }

    /// Find a state by display name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|i| i.name == name).map(|i| StateId(i as u32))
    }

    /// States reachable from the initial state (local reachability, ignoring
    /// whether the required messages could ever arrive).
    pub fn reachable_states(&self) -> Vec<bool> {
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        seen[self.initial.index()] = true;
        queue.push_back(self.initial);
        while let Some(s) = queue.pop_front() {
            for (_, t) in self.outgoing(s) {
                if !seen[t.to.index()] {
                    seen[t.to.index()] = true;
                    queue.push_back(t.to);
                }
            }
        }
        seen
    }

    /// Longest path length from the initial state; this is the number of
    /// phases this site participates in.
    pub fn max_depth(&self) -> u32 {
        // Acyclic, so a DFS longest-path with memoization terminates.
        fn longest(fsa: &Fsa, s: StateId, memo: &mut [Option<u32>]) -> u32 {
            if let Some(v) = memo[s.index()] {
                return v;
            }
            let best =
                fsa.outgoing(s).map(|(_, t)| 1 + longest(fsa, t.to, memo)).max().unwrap_or(0);
            memo[s.index()] = Some(best);
            best
        }
        let mut memo = vec![None; self.states.len()];
        longest(self, self.initial, &mut memo)
    }

    /// Validate the structural properties required of commit-protocol FSAs.
    ///
    /// `site` and `n_sites` contextualize error messages and let us check
    /// that emitted messages address real sites of the instance.
    pub(crate) fn validate(&self, site: SiteId, n_sites: usize) -> Result<(), ProtocolError> {
        if self.states.is_empty() {
            return Err(ProtocolError::EmptyFsa { site });
        }
        if self.initial.index() >= self.states.len() {
            return Err(ProtocolError::BadStateRef { site, state: self.initial });
        }
        for t in &self.transitions {
            for s in [t.from, t.to] {
                if s.index() >= self.states.len() {
                    return Err(ProtocolError::BadStateRef { site, state: s });
                }
            }
            match &t.consume {
                Consume::Spontaneous => {}
                Consume::All(v) | Consume::Any(v) => {
                    if v.is_empty() {
                        return Err(ProtocolError::EmptyTrigger { site, state: t.from });
                    }
                    for (src, _) in v {
                        if !src.is_client() && src.index() >= n_sites {
                            return Err(ProtocolError::BadSiteRef { site, referenced: *src });
                        }
                    }
                }
                Consume::Quorum { k, srcs } => {
                    if srcs.is_empty() {
                        return Err(ProtocolError::EmptyTrigger { site, state: t.from });
                    }
                    if *k == 0 || *k as usize > srcs.len() {
                        return Err(ProtocolError::BadQuorum { site, state: t.from });
                    }
                    let mut sorted = srcs.clone();
                    sorted.sort();
                    if sorted.windows(2).any(|w| w[0] == w[1]) {
                        return Err(ProtocolError::BadQuorum { site, state: t.from });
                    }
                    for (src, _) in srcs {
                        if !src.is_client() && src.index() >= n_sites {
                            return Err(ProtocolError::BadSiteRef { site, referenced: *src });
                        }
                    }
                }
            }
            for e in &t.emit {
                if !e.dst.is_client() && e.dst.index() >= n_sites {
                    return Err(ProtocolError::BadSiteRef { site, referenced: e.dst });
                }
            }
            if self.is_final(t.from) {
                return Err(ProtocolError::FinalStateHasExit { site, state: t.from });
            }
        }
        self.check_acyclic(site)?;
        // Every reachable non-final state must have an exit.
        let reach = self.reachable_states();
        for (i, reachable) in reach.iter().enumerate() {
            let s = StateId(i as u32);
            if *reachable && !self.is_final(s) && self.outgoing[i].is_empty() {
                return Err(ProtocolError::StrandedState { site, state: s });
            }
        }
        Ok(())
    }

    /// [`ProtocolError::Cyclic`] unless the state diagram is acyclic: the
    /// property that bounds what a site can send (see [`crate::codec`]).
    pub(crate) fn check_acyclic(&self, site: SiteId) -> Result<(), ProtocolError> {
        // Kahn's algorithm over the state diagram.
        let n = self.states.len();
        let mut indeg = vec![0usize; n];
        for t in &self.transitions {
            if t.from != t.to {
                indeg[t.to.index()] += 1;
            } else {
                return Err(ProtocolError::Cyclic { site });
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut removed = 0;
        while let Some(i) = queue.pop_front() {
            removed += 1;
            for t in &self.transitions {
                if t.from.index() == i {
                    indeg[t.to.index()] -= 1;
                    if indeg[t.to.index()] == 0 {
                        queue.push_back(t.to.index());
                    }
                }
            }
        }
        if removed != n {
            return Err(ProtocolError::Cyclic { site });
        }
        Ok(())
    }
}

impl fmt::Display for Fsa {
    /// Renders the FSA as a compact transition table, one row per
    /// transition, mirroring the paper's protocol figures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FSA ({}):", self.role)?;
        for (i, info) in self.states.iter().enumerate() {
            let marker = if StateId(i as u32) == self.initial {
                ">"
            } else if info.class.is_final() {
                "*"
            } else {
                " "
            };
            writeln!(f, "  {marker} {} [{:?}]", info.name, info.class)?;
        }
        for t in &self.transitions {
            writeln!(
                f,
                "    {} -> {} : {}",
                self.states[t.from.index()].name,
                self.states[t.to.index()].name,
                t.label
            )?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Fsa`].
#[derive(Clone, Debug, Default)]
pub struct FsaBuilder {
    role: String,
    states: Vec<StateInfo>,
    initial: Option<StateId>,
    transitions: Vec<Transition>,
}

impl FsaBuilder {
    /// Start building an FSA for the given role name.
    pub fn new(role: impl Into<String>) -> Self {
        Self { role: role.into(), ..Self::default() }
    }

    /// Add a state; the first `Initial`-classed state added becomes the
    /// initial state (override with [`FsaBuilder::initial`]).
    pub fn state(&mut self, name: impl Into<String>, class: StateClass) -> StateId {
        let id = StateId(self.states.len() as u32);
        if self.initial.is_none() && class == StateClass::Initial {
            self.initial = Some(id);
        }
        self.states.push(StateInfo { name: name.into(), class });
        id
    }

    /// Explicitly set the initial state.
    pub fn initial(&mut self, s: StateId) -> &mut Self {
        self.initial = Some(s);
        self
    }

    /// Add a transition.
    pub fn transition(
        &mut self,
        from: StateId,
        to: StateId,
        consume: Consume,
        emit: Vec<Envelope>,
        vote: Option<Vote>,
        label: impl Into<String>,
    ) -> &mut Self {
        self.transitions.push(Transition { from, to, consume, emit, vote, label: label.into() });
        self
    }

    /// Finish, computing the outgoing-transition index.
    ///
    /// # Panics
    /// Panics if no initial state was declared. Structural validation is
    /// deferred to `Fsa::validate` so that invalid protocols can still be
    /// constructed and *analyzed* (e.g. to demonstrate what goes wrong).
    pub fn build(self) -> Fsa {
        let initial = self.initial.expect("FSA needs an initial state");
        let mut outgoing = vec![Vec::new(); self.states.len()];
        for (i, t) in self.transitions.iter().enumerate() {
            if let Some(slot) = outgoing.get_mut(t.from.index()) {
                slot.push(i as u32);
            }
        }
        Fsa {
            role: self.role,
            states: self.states,
            initial,
            transitions: self.transitions,
            outgoing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_2pc_participant() -> Fsa {
        // q --xact/yes--> w ; q --xact/no--> a ; w --commit--> c ; w --abort--> a
        let coord = SiteId(0);
        let me = SiteId(1);
        let mut b = FsaBuilder::new("slave");
        let q = b.state("q", StateClass::Initial);
        let w = b.state("w", StateClass::Wait);
        let a = b.state("a", StateClass::Aborted);
        let c = b.state("c", StateClass::Committed);
        b.transition(
            q,
            w,
            Consume::one(coord, MsgKind::XACT),
            vec![Envelope::new(coord, MsgKind::YES)],
            Some(Vote::Yes),
            "xact / yes",
        );
        b.transition(
            q,
            a,
            Consume::one(coord, MsgKind::XACT),
            vec![Envelope::new(coord, MsgKind::NO)],
            Some(Vote::No),
            "xact / no",
        );
        b.transition(w, c, Consume::one(coord, MsgKind::COMMIT), vec![], None, "commit /");
        b.transition(w, a, Consume::one(coord, MsgKind::ABORT), vec![], None, "abort /");
        let _ = me;
        b.build()
    }

    #[test]
    fn builder_produces_valid_fsa() {
        let fsa = tiny_2pc_participant();
        assert_eq!(fsa.state_count(), 4);
        fsa.validate(SiteId(1), 2).unwrap();
    }

    #[test]
    fn nondeterminism_is_allowed() {
        let fsa = tiny_2pc_participant();
        let q = fsa.state_by_name("q").unwrap();
        // Two transitions out of q on the same input.
        assert_eq!(fsa.outgoing(q).count(), 2);
    }

    #[test]
    fn final_states_have_no_exits() {
        let fsa = tiny_2pc_participant();
        let c = fsa.state_by_name("c").unwrap();
        let a = fsa.state_by_name("a").unwrap();
        assert_eq!(fsa.outgoing(c).count(), 0);
        assert_eq!(fsa.outgoing(a).count(), 0);
        assert!(fsa.is_commit(c) && fsa.state(a).class == StateClass::Aborted);
    }

    #[test]
    fn cyclic_fsa_rejected() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        let w = b.state("w", StateClass::Wait);
        b.transition(q, w, Consume::Spontaneous, vec![], None, "go");
        b.transition(w, q, Consume::Spontaneous, vec![], None, "back");
        let fsa = b.build();
        assert_eq!(fsa.validate(SiteId(0), 1), Err(ProtocolError::Cyclic { site: SiteId(0) }));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        let a = b.state("a", StateClass::Aborted);
        b.transition(q, q, Consume::Spontaneous, vec![], None, "spin");
        b.transition(q, a, Consume::Spontaneous, vec![], None, "abort");
        let fsa = b.build();
        assert_eq!(fsa.validate(SiteId(0), 1), Err(ProtocolError::Cyclic { site: SiteId(0) }));
    }

    #[test]
    fn stranded_state_rejected() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        let w = b.state("w", StateClass::Wait); // no exit, not final
        b.transition(q, w, Consume::Spontaneous, vec![], None, "go");
        let fsa = b.build();
        assert_eq!(
            fsa.validate(SiteId(0), 1),
            Err(ProtocolError::StrandedState { site: SiteId(0), state: w })
        );
    }

    #[test]
    fn exit_from_final_rejected() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        let c = b.state("c", StateClass::Committed);
        let a = b.state("a", StateClass::Aborted);
        b.transition(q, c, Consume::Spontaneous, vec![], None, "commit");
        b.transition(c, a, Consume::Spontaneous, vec![], None, "undo!");
        let fsa = b.build();
        assert_eq!(
            fsa.validate(SiteId(0), 1),
            Err(ProtocolError::FinalStateHasExit { site: SiteId(0), state: c })
        );
    }

    #[test]
    fn empty_trigger_rejected() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        let a = b.state("a", StateClass::Aborted);
        b.transition(q, a, Consume::All(vec![]), vec![], None, "noop");
        let fsa = b.build();
        assert_eq!(
            fsa.validate(SiteId(0), 1),
            Err(ProtocolError::EmptyTrigger { site: SiteId(0), state: q })
        );
    }

    #[test]
    fn bad_site_reference_rejected() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        let a = b.state("a", StateClass::Aborted);
        b.transition(q, a, Consume::one(SiteId(9), MsgKind::XACT), vec![], None, "xact from site9");
        let fsa = b.build();
        assert_eq!(
            fsa.validate(SiteId(0), 2),
            Err(ProtocolError::BadSiteRef { site: SiteId(0), referenced: SiteId(9) })
        );
    }

    #[test]
    fn max_depth_counts_phases() {
        let fsa = tiny_2pc_participant();
        assert_eq!(fsa.max_depth(), 2);
    }

    #[test]
    fn reachable_states_ignores_orphans() {
        let mut b = FsaBuilder::new("orphan");
        let q = b.state("q", StateClass::Initial);
        let a = b.state("a", StateClass::Aborted);
        let _orphan = b.state("z", StateClass::Custom(0));
        b.transition(q, a, Consume::Spontaneous, vec![], None, "abort");
        let fsa = b.build();
        let reach = fsa.reachable_states();
        assert_eq!(reach, vec![true, true, false]);
        // Orphan non-final states do not fail validation (unreachable).
        fsa.validate(SiteId(0), 1).unwrap();
    }
}
