//! A commit protocol instance: one FSA per participating site, plus the
//! initial contents of the network tape.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::ProtocolError;
use crate::fsa::Fsa;
use crate::ids::{MsgKind, SiteId};

/// The two generic classes of commit protocols the paper considers.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Paradigm {
    /// One distinguished coordinator directs the slaves; a slave
    /// communicates only with the coordinator, and during each phase the
    /// coordinator sends the same message to each slave and waits for a
    /// response from each.
    CentralSite,
    /// No distinguished sites: every site runs the same protocol and
    /// communicates with every other site in rounds of message interchange.
    Decentralized,
    /// Anything else (user-defined protocols under analysis).
    Custom,
}

impl fmt::Display for Paradigm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::CentralSite => "central site",
            Self::Decentralized => "fully decentralized",
            Self::Custom => "custom",
        })
    }
}

/// An initial message pre-loaded on the network tape.
///
/// The paper does not model how the transaction is distributed to the
/// sites; the stimulus ("request" for a central coordinator, "xact" for
/// every decentralized peer) is simply received. We model it as a message
/// from [`SiteId::CLIENT`] outstanding in the initial global state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct InitialMsg {
    /// Sender (usually [`SiteId::CLIENT`]).
    pub src: SiteId,
    /// Receiving site.
    pub dst: SiteId,
    /// Message kind.
    pub kind: MsgKind,
}

/// Quorum structure of a consensus-based protocol: the trailing
/// `2f + 1` sites are *acceptors* whose only job is making the decision
/// durable; any `f` of them may crash without blocking the participants.
///
/// The participants (transaction manager / resource managers in
/// Gray–Lamport terms) are the sites `0..acceptors_from`; the acceptors
/// are `acceptors_from..n_sites`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct QuorumSpec {
    /// Number of acceptor crashes the protocol absorbs without blocking.
    pub f: usize,
    /// First acceptor site index; acceptors are `acceptors_from..n_sites`.
    pub acceptors_from: usize,
}

/// A fully instantiated commit protocol for a fixed set of sites.
#[derive(Clone, Debug)]
pub struct Protocol {
    /// Display name, e.g. `"central-site 3PC (n=4)"`.
    pub name: String,
    /// Which paradigm the protocol belongs to.
    pub paradigm: Paradigm,
    fsas: Vec<Fsa>,
    initial_msgs: Vec<InitialMsg>,
    msg_names: BTreeMap<MsgKind, String>,
    quorum: Option<QuorumSpec>,
}

impl Protocol {
    /// Assemble a protocol. `fsas[i]` is the automaton run by site `i`.
    pub fn new(
        name: impl Into<String>,
        paradigm: Paradigm,
        fsas: Vec<Fsa>,
        initial_msgs: Vec<InitialMsg>,
    ) -> Self {
        Self {
            name: name.into(),
            paradigm,
            fsas,
            initial_msgs,
            msg_names: BTreeMap::new(),
            quorum: None,
        }
    }

    /// Declare this protocol quorum-based (see [`QuorumSpec`]).
    pub(crate) fn set_quorum(&mut self, spec: QuorumSpec) {
        self.quorum = Some(spec);
    }

    /// Builder-style `Protocol::set_quorum`.
    pub fn with_quorum(mut self, spec: QuorumSpec) -> Self {
        self.set_quorum(spec);
        self
    }

    /// The quorum structure, if this is a consensus-based protocol.
    #[inline]
    pub fn quorum(&self) -> Option<QuorumSpec> {
        self.quorum
    }

    /// True if `site` is an acceptor of a quorum-based protocol.
    pub fn is_acceptor(&self, site: usize) -> bool {
        self.quorum.is_some_and(|q| site >= q.acceptors_from)
    }

    /// Number of participant (non-acceptor) sites. Equals
    /// [`Protocol::n_sites`] for non-quorum protocols.
    pub fn n_participants(&self) -> usize {
        self.quorum.map_or(self.n_sites(), |q| q.acceptors_from)
    }

    /// Number of participating sites.
    #[inline]
    pub fn n_sites(&self) -> usize {
        self.fsas.len()
    }

    /// All site ids of this instance.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.n_sites() as u32).map(SiteId)
    }

    /// The automaton run by `site`.
    #[inline]
    pub fn fsa(&self, site: SiteId) -> &Fsa {
        &self.fsas[site.index()]
    }

    /// All automata, indexed by site.
    #[inline]
    pub fn fsas(&self) -> &[Fsa] {
        &self.fsas
    }

    /// Initial network-tape contents.
    #[inline]
    pub fn initial_msgs(&self) -> &[InitialMsg] {
        &self.initial_msgs
    }

    /// Register a human-readable name for a custom message kind.
    pub fn name_msg(&mut self, kind: MsgKind, name: impl Into<String>) {
        self.msg_names.insert(kind, name.into());
    }

    /// Resolve a message kind to a display name.
    pub fn msg_name(&self, kind: MsgKind) -> String {
        if let Some(n) = kind.builtin_name() {
            return n.to_string();
        }
        self.msg_names.get(&kind).cloned().unwrap_or_else(|| format!("msg{}", kind.0))
    }

    /// Validate every site FSA plus protocol-level properties.
    ///
    /// Protocol-level checks: at least one site; every initial message
    /// addresses a real site; and the protocol has at least two phases
    /// (the paper: 1PC exists but "is inadequate because it does not allow
    /// an unilateral abort"; every protocol in the design space studied has
    /// two or more phases — we still permit constructing 1PC for the
    /// catalog, so this check is only run by [`Protocol::validate_strict`]).
    pub(crate) fn validate(&self) -> Result<(), ProtocolError> {
        if self.fsas.is_empty() {
            return Err(ProtocolError::NoSites);
        }
        for (i, fsa) in self.fsas.iter().enumerate() {
            fsa.validate(SiteId(i as u32), self.n_sites())?;
        }
        for m in &self.initial_msgs {
            if !m.dst.is_client() && m.dst.index() >= self.n_sites() {
                return Err(ProtocolError::BadSiteRef { site: m.src, referenced: m.dst });
            }
        }
        if let Some(q) = self.quorum {
            // 2f+1 acceptors in the contiguous tail, at least one
            // participant in front of them.
            if q.acceptors_from == 0
                || q.acceptors_from >= self.n_sites()
                || self.n_sites() - q.acceptors_from != 2 * q.f + 1
            {
                return Err(ProtocolError::BadQuorumSpec {
                    f: q.f,
                    acceptors_from: q.acceptors_from,
                    n_sites: self.n_sites(),
                });
            }
        }
        Ok(())
    }

    /// `Protocol::validate` plus the two-phase minimum.
    pub fn validate_strict(&self) -> Result<(), ProtocolError> {
        self.validate()?;
        let phases = self.phase_count();
        if phases < 2 {
            return Err(ProtocolError::TooFewPhases { phases });
        }
        Ok(())
    }

    /// Number of phases: a phase occurs when all sites executing the
    /// protocol make a state transition, so the phase count is the largest
    /// number of transitions any site can make.
    pub fn phase_count(&self) -> u32 {
        self.fsas.iter().map(Fsa::max_depth).max().unwrap_or(0)
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}; {} sites; {} phases]",
            self.name,
            self.paradigm,
            self.n_sites(),
            self.phase_count()
        )?;
        for fsa in &self.fsas {
            write!(f, "{fsa}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::{Consume, Envelope, FsaBuilder, StateClass, Vote};

    fn two_site_protocol() -> Protocol {
        let coord = SiteId(0);
        let slave = SiteId(1);

        let mut cb = FsaBuilder::new("coordinator");
        let q1 = cb.state("q1", StateClass::Initial);
        let w1 = cb.state("w1", StateClass::Wait);
        let a1 = cb.state("a1", StateClass::Aborted);
        let c1 = cb.state("c1", StateClass::Committed);
        cb.transition(
            q1,
            w1,
            Consume::one(SiteId::CLIENT, MsgKind::REQUEST),
            vec![Envelope::new(slave, MsgKind::XACT)],
            None,
            "request / xact",
        );
        cb.transition(
            w1,
            c1,
            Consume::All(vec![(slave, MsgKind::YES)]),
            vec![Envelope::new(slave, MsgKind::COMMIT)],
            Some(Vote::Yes),
            "yes / commit",
        );
        cb.transition(
            w1,
            a1,
            Consume::Any(vec![(slave, MsgKind::NO)]),
            vec![Envelope::new(slave, MsgKind::ABORT)],
            None,
            "no / abort",
        );
        cb.transition(
            w1,
            a1,
            Consume::Spontaneous,
            vec![Envelope::new(slave, MsgKind::ABORT)],
            Some(Vote::No),
            "(no1) / abort",
        );

        let mut sb = FsaBuilder::new("slave");
        let q2 = sb.state("q2", StateClass::Initial);
        let w2 = sb.state("w2", StateClass::Wait);
        let a2 = sb.state("a2", StateClass::Aborted);
        let c2 = sb.state("c2", StateClass::Committed);
        sb.transition(
            q2,
            w2,
            Consume::one(coord, MsgKind::XACT),
            vec![Envelope::new(coord, MsgKind::YES)],
            Some(Vote::Yes),
            "xact / yes",
        );
        sb.transition(
            q2,
            a2,
            Consume::one(coord, MsgKind::XACT),
            vec![Envelope::new(coord, MsgKind::NO)],
            Some(Vote::No),
            "xact / no",
        );
        sb.transition(w2, c2, Consume::one(coord, MsgKind::COMMIT), vec![], None, "commit /");
        sb.transition(w2, a2, Consume::one(coord, MsgKind::ABORT), vec![], None, "abort /");

        Protocol::new(
            "test 2PC (n=2)",
            Paradigm::CentralSite,
            vec![cb.build(), sb.build()],
            vec![InitialMsg { src: SiteId::CLIENT, dst: coord, kind: MsgKind::REQUEST }],
        )
    }

    #[test]
    fn validates_and_counts_phases() {
        let p = two_site_protocol();
        p.validate_strict().unwrap();
        assert_eq!(p.n_sites(), 2);
        assert_eq!(p.phase_count(), 2);
    }

    #[test]
    fn empty_protocol_rejected() {
        let p = Protocol::new("empty", Paradigm::Custom, vec![], vec![]);
        assert_eq!(p.validate(), Err(ProtocolError::NoSites));
    }

    #[test]
    fn msg_names_resolve() {
        let mut p = two_site_protocol();
        assert_eq!(p.msg_name(MsgKind::XACT), "xact");
        let custom = MsgKind(40);
        assert_eq!(p.msg_name(custom), "msg40");
        p.name_msg(custom, "ballot");
        assert_eq!(p.msg_name(custom), "ballot");
    }

    #[test]
    fn display_renders_all_sites() {
        let p = two_site_protocol();
        let s = p.to_string();
        assert!(s.contains("coordinator"));
        assert!(s.contains("slave"));
        assert!(s.contains("2 phases"));
    }

    #[test]
    fn initial_msg_to_unknown_site_rejected() {
        let mut p = two_site_protocol();
        p.initial_msgs.push(InitialMsg {
            src: SiteId::CLIENT,
            dst: SiteId(5),
            kind: MsgKind::XACT,
        });
        assert!(matches!(p.validate(), Err(ProtocolError::BadSiteRef { .. })));
    }

    #[test]
    fn sites_iterator() {
        let p = two_site_protocol();
        let v: Vec<_> = p.sites().collect();
        assert_eq!(v, vec![SiteId(0), SiteId(1)]);
    }
}
