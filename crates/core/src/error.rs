//! Error types for protocol construction and analysis.

use std::fmt;

use crate::ids::{SiteId, StateId};

/// Errors raised while validating or analyzing a protocol.
///
/// Variant fields name the offending site/state; they are self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ProtocolError {
    /// A transition references a state id outside the FSA's state table.
    BadStateRef { site: SiteId, state: StateId },
    /// A message names a destination site outside the protocol instance.
    BadSiteRef { site: SiteId, referenced: SiteId },
    /// The state diagram contains a cycle; the paper requires commit
    /// protocol FSAs to be acyclic.
    Cyclic { site: SiteId },
    /// A final (commit or abort) state has an outgoing transition; commit
    /// and abort are irreversible.
    FinalStateHasExit { site: SiteId, state: StateId },
    /// A reachable non-final local state has no outgoing transition, so the
    /// site could get stuck even without failures.
    StrandedState { site: SiteId, state: StateId },
    /// The protocol has fewer than two phases; the paper observes that
    /// every (unilateral-abort) commit protocol has at least two.
    TooFewPhases { phases: u32 },
    /// An FSA has no states or no initial state.
    EmptyFsa { site: SiteId },
    /// A protocol must have at least one participating site.
    NoSites,
    /// A `Consume::All`/`Consume::Any` trigger lists no messages; the paper
    /// requires each transition to read a nonempty string of messages
    /// (spontaneous internal decisions use `Consume::Spontaneous`).
    EmptyTrigger { site: SiteId, state: StateId },
    /// A `Consume::Quorum` trigger is malformed: `k` is zero, exceeds the
    /// number of listed sources, or the source list contains duplicates
    /// (a quorum counts *distinct* respondents).
    BadQuorum { site: SiteId, state: StateId },
    /// A protocol's quorum spec is inconsistent with its site count: the
    /// acceptor tail must hold exactly `2f + 1` sites and leave at least
    /// one participant.
    BadQuorumSpec { f: usize, acceptors_from: usize, n_sites: usize },
    /// Reachable-state-graph construction exceeded the configured bound.
    GraphTooLarge { limit: usize },
    /// A message multiset's per-address count overflowed `u16` — an
    /// unchecked increment would silently wrap to 0 and corrupt the
    /// multiset. The graph builders raise it when an emission finds its
    /// address's count field full (see `codec`).
    MsgOverflow { src: SiteId, dst: SiteId, kind: crate::ids::MsgKind },
    /// More worker threads were asked for than a state-space exploration
    /// accepts ([`crate::reach::MAX_THREADS`]).
    TooManyThreads { max: usize, got: usize },
    /// An external-memory spill or lookup failed at the I/O layer (disk
    /// full, temp dir unwritable). Carries the underlying error text —
    /// a `String` so the variant stays `Eq` like the rest.
    SpillIo { detail: String },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadStateRef { site, state } => {
                write!(f, "{site}: transition references unknown state {state:?}")
            }
            Self::BadSiteRef { site, referenced } => {
                write!(f, "{site}: message references unknown site {referenced}")
            }
            Self::Cyclic { site } => {
                write!(f, "{site}: state diagram is cyclic (must be acyclic)")
            }
            Self::FinalStateHasExit { site, state } => {
                write!(
                    f,
                    "{site}: final state {state:?} has an outgoing transition \
                     (commit/abort are irreversible)"
                )
            }
            Self::StrandedState { site, state } => {
                write!(f, "{site}: reachable non-final state {state:?} has no outgoing transition")
            }
            Self::TooFewPhases { phases } => {
                write!(f, "protocol has {phases} phase(s); at least 2 required")
            }
            Self::EmptyFsa { site } => write!(f, "{site}: FSA has no states"),
            Self::NoSites => write!(f, "protocol has no participating sites"),
            Self::EmptyTrigger { site, state } => {
                write!(f, "{site}: transition out of {state:?} consumes an empty message string")
            }
            Self::BadQuorum { site, state } => {
                write!(
                    f,
                    "{site}: quorum trigger out of {state:?} needs 1 <= k <= sources \
                     and distinct sources"
                )
            }
            Self::BadQuorumSpec { f: faults, acceptors_from, n_sites } => {
                write!(
                    f,
                    "quorum spec wants 2*{faults}+1 acceptors from site {acceptors_from} \
                     but the protocol has {n_sites} site(s)"
                )
            }
            Self::GraphTooLarge { limit } => {
                write!(f, "reachable state graph exceeds limit of {limit} global states")
            }
            Self::MsgOverflow { src, dst, kind } => {
                write!(
                    f,
                    "outstanding-message count overflow for {src}->{dst} kind {kind:?} \
                     (more than {} identical messages)",
                    u16::MAX
                )
            }
            Self::TooManyThreads { max, got } => {
                write!(f, "{got} worker threads requested; at most {max} are accepted")
            }
            Self::SpillIo { detail } => {
                write!(f, "external-memory spill I/O failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ProtocolError::Cyclic { site: SiteId(1) };
        assert!(e.to_string().contains("site1"));
        assert!(e.to_string().contains("cyclic"));

        let e = ProtocolError::GraphTooLarge { limit: 10 };
        assert!(e.to_string().contains("10"));

        let e = ProtocolError::TooFewPhases { phases: 1 };
        assert!(e.to_string().contains("at least 2"));
    }
}
