//! The commit protocols a transaction driver can run its rounds under.

use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};
use nbc_core::Protocol;
use nbc_engine::TerminationRule;

/// Which commit protocol every round runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// Central-site two-phase commit (blocking).
    Central2pc,
    /// Central-site three-phase commit (nonblocking).
    Central3pc,
    /// Decentralized two-phase commit (blocking).
    Decentralized2pc,
    /// Decentralized three-phase commit (nonblocking).
    Decentralized3pc,
    /// Paxos Commit with `2f + 1` acceptor sites riding on top of the
    /// data sites. The data sites are the protocol's participants; the
    /// acceptors carry no keys, locks, or WAL — they exist only inside
    /// the commit round.
    Paxos {
        /// Tolerated acceptor crashes.
        f: usize,
    },
}

impl ProtocolKind {
    /// Instantiate the protocol for `n` sites.
    pub fn build(self, n: usize) -> Protocol {
        match self {
            Self::Central2pc => central_2pc(n),
            Self::Central3pc => central_3pc(n),
            Self::Decentralized2pc => decentralized_2pc(n),
            Self::Decentralized3pc => decentralized_3pc(n),
            Self::Paxos { f } => nbc_paxos::paxos_commit(n, f),
        }
    }

    /// The termination rule a deployment of this protocol would use:
    /// cooperative termination for the blocking protocols, the paper's
    /// rule for the nonblocking ones. Paxos Commit participants behave
    /// like 2PC slaves, so they terminate cooperatively.
    pub fn rule(self) -> TerminationRule {
        match self {
            Self::Central2pc | Self::Decentralized2pc | Self::Paxos { .. } => {
                TerminationRule::Cooperative
            }
            Self::Central3pc | Self::Decentralized3pc => TerminationRule::Skeen,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Central2pc => "central 2PC",
            Self::Central3pc => "central 3PC",
            Self::Decentralized2pc => "decentralized 2PC",
            Self::Decentralized3pc => "decentralized 3PC",
            Self::Paxos { .. } => "paxos commit",
        }
    }
}
