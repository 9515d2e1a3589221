//! Small copyable identifiers used throughout the formal model.
//!
//! The paper models a distributed transaction as a set of communicating
//! finite state automata, one per participating site, exchanging messages
//! over a reliable network. Everything in the model is therefore addressed
//! by three kinds of identifiers: sites, local states, and message kinds.

use std::fmt;

/// Identifies one participating site of a protocol instance.
///
/// Sites are numbered `0..n`. By convention, in the *central site* paradigm
/// site `0` is the coordinator and sites `1..n` are the slaves; in the
/// *fully decentralized* paradigm all sites are peers.
///
/// The distinguished value [`SiteId::CLIENT`] denotes the external world
/// (the application that submits the transaction). The paper does not model
/// how the transaction reaches the sites ("an xact message will be simply
/// received"); we model that stimulus as a message from `CLIENT` placed on
/// the network tape in the initial global state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The external transaction source (not a participating site).
    pub const CLIENT: SiteId = SiteId(u32::MAX);

    /// Returns the site index as a `usize`, panicking on [`SiteId::CLIENT`].
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(self != Self::CLIENT, "CLIENT has no participant index");
        self.0 as usize
    }

    /// True if this id denotes the external client rather than a site.
    #[inline]
    pub fn is_client(self) -> bool {
        self == Self::CLIENT
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_client() {
            write!(f, "client")
        } else {
            write!(f, "site{}", self.0)
        }
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifies a local state within one site's finite state automaton.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the state index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A message kind (the "letter" written on the network tape).
///
/// Well-known kinds used by the catalog protocols are provided as associated
/// constants. User-defined protocols may use any further values; human
/// readable names are registered on the owning
/// [`Protocol`](crate::protocol::Protocol).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgKind(pub u16);

impl MsgKind {
    /// The client's commit request delivered to a central-site coordinator.
    pub const REQUEST: MsgKind = MsgKind(0);
    /// The transaction broadcast (`xact`): the stimulus that starts a site.
    pub const XACT: MsgKind = MsgKind(1);
    /// A yes vote ("I can commit").
    pub const YES: MsgKind = MsgKind(2);
    /// A no vote ("I must abort").
    pub const NO: MsgKind = MsgKind(3);
    /// The commit decision.
    pub const COMMIT: MsgKind = MsgKind(4);
    /// The abort decision.
    pub const ABORT: MsgKind = MsgKind(5);
    /// "Prepare to commit" — the buffer-state announcement of 3PC.
    pub(crate) const PREPARE: MsgKind = MsgKind(6);
    /// Acknowledgement of a `PREPARE` (central-site 3PC, phase 3).
    pub const ACK: MsgKind = MsgKind(7);
    /// First kind available for user-defined protocols.
    pub const FIRST_CUSTOM: MsgKind = MsgKind(8);

    /// Built-in name for the well-known kinds, `None` for custom kinds.
    pub(crate) fn builtin_name(self) -> Option<&'static str> {
        Some(match self {
            Self::REQUEST => "request",
            Self::XACT => "xact",
            Self::YES => "yes",
            Self::NO => "no",
            Self::COMMIT => "commit",
            Self::ABORT => "abort",
            Self::PREPARE => "prepare",
            Self::ACK => "ack",
            _ => return None,
        })
    }
}

impl fmt::Debug for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.builtin_name() {
            Some(n) => f.write_str(n),
            None => write!(f, "msg{}", self.0),
        }
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_is_distinguished() {
        assert!(SiteId::CLIENT.is_client());
        assert!(!SiteId(0).is_client());
        assert_eq!(format!("{}", SiteId::CLIENT), "client");
        assert_eq!(format!("{}", SiteId(3)), "site3");
    }

    #[test]
    fn site_index_roundtrip() {
        assert_eq!(SiteId(7).index(), 7);
        assert_eq!(StateId(4).index(), 4);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn client_index_panics() {
        let _ = SiteId::CLIENT.index();
    }

    #[test]
    fn builtin_msg_names() {
        assert_eq!(MsgKind::XACT.builtin_name(), Some("xact"));
        assert_eq!(MsgKind::ACK.builtin_name(), Some("ack"));
        assert_eq!(MsgKind(99).builtin_name(), None);
        assert_eq!(format!("{}", MsgKind::PREPARE), "prepare");
        assert_eq!(format!("{}", MsgKind(42)), "msg42");
    }

    #[test]
    fn msg_kind_ordering_is_stable() {
        assert!(MsgKind::REQUEST < MsgKind::XACT);
        assert!(MsgKind::ACK < MsgKind::FIRST_CUSTOM);
    }
}
