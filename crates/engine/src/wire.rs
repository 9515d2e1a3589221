//! The engine's wire format: protocol messages plus the control messages
//! of the termination and recovery protocols.

use std::fmt;

use nbc_core::{Fp128, MsgKind};

/// Everything that travels between sites during a run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Wire {
    /// A commit-protocol message (read/written by the site FSAs).
    Proto(MsgKind),
    /// Termination protocol, phase 1: the backup coordinator `backup`
    /// directs the receiver to make a transition to the backup's state
    /// (identified by its class code).
    AlignTo {
        /// The backup coordinator issuing the directive.
        backup: usize,
        /// Class code of the backup's state (see
        /// [`class_map`](crate::class_map)).
        class: u8,
    },
    /// Termination protocol: acknowledgement of `AlignTo`, carrying the
    /// class the acking site occupied *before* aligning (the cooperative
    /// rule's input).
    AlignAck {
        /// The backup this ack answers.
        backup: usize,
        /// The acking site's pre-alignment class code.
        reported_class: u8,
    },
    /// Termination protocol, phase 2: the decision.
    TermDecision {
        /// The backup that decided.
        backup: usize,
        /// `true` = commit.
        commit: bool,
    },
    /// Termination protocol, phase 2 (degenerate): the backup announces it
    /// cannot decide — the protocol blocks (possible only for protocols
    /// violating the fundamental nonblocking theorem).
    TermBlocked {
        /// The backup that blocked.
        backup: usize,
    },
    /// Recovery protocol: a recovering site asks what happened.
    WhatHappened,
    /// Recovery protocol: answer to `WhatHappened`.
    OutcomeIs {
        /// `Some(true)`=committed, `Some(false)`=aborted, `None`=the
        /// responder does not know (still in progress or itself blocked).
        outcome: Option<bool>,
        /// The responder's current class code (drives cooperative
        /// everyone-undecided recovery).
        class: u8,
        /// True if the responder will not reach a decision on its own:
        /// it has decided, is blocked, or is itself recovering. An
        /// *unsettled* `None` (the responder is still executing or
        /// terminating) must not count toward the everyone-undecided
        /// rule — acting on it races the in-flight termination protocol.
        settled: bool,
    },
}

impl Wire {
    /// Absorb this message into a state fingerprint (injective: a variant
    /// tag, then its fields). Lives next to the enum so a new variant
    /// cannot be added without deciding how it is fingerprinted.
    pub(crate) fn fingerprint_into(&self, h: &mut Fp128) {
        match *self {
            Wire::Proto(kind) => {
                h.write_u8(0);
                h.write_u32(kind.0.into());
            }
            Wire::AlignTo { backup, class } => {
                h.write_u8(1);
                h.write_usize(backup);
                h.write_u8(class);
            }
            Wire::AlignAck { backup, reported_class } => {
                h.write_u8(2);
                h.write_usize(backup);
                h.write_u8(reported_class);
            }
            Wire::TermDecision { backup, commit } => {
                h.write_u8(3);
                h.write_usize(backup);
                h.write_u8(u8::from(commit));
            }
            Wire::TermBlocked { backup } => {
                h.write_u8(4);
                h.write_usize(backup);
            }
            Wire::WhatHappened => h.write_u8(5),
            Wire::OutcomeIs { outcome, class, settled } => {
                h.write_u8(6);
                h.write_u8(match outcome {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
                h.write_u8(class);
                h.write_u8(u8::from(settled));
            }
        }
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letter = |c: &u8| crate::class_map::decode_class(*c).letter();
        match self {
            Self::Proto(k) => write!(f, "{k}"),
            Self::AlignTo { backup, class } => {
                write!(f, "align-to({}) from backup site{backup}", letter(class))
            }
            Self::AlignAck { reported_class, .. } => {
                write!(f, "align-ack(was {})", letter(reported_class))
            }
            Self::TermDecision { commit, backup } => {
                write!(
                    f,
                    "decision({}) from site{backup}",
                    if *commit { "commit" } else { "abort" }
                )
            }
            Self::TermBlocked { backup } => write!(f, "blocked! (backup site{backup})"),
            Self::WhatHappened => write!(f, "what-happened?"),
            Self::OutcomeIs { outcome, class, settled } => match outcome {
                Some(true) => write!(f, "outcome: committed"),
                Some(false) => write!(f, "outcome: aborted"),
                None => write!(
                    f,
                    "outcome: unknown (in {}{})",
                    letter(class),
                    if *settled { ", settled" } else { "" }
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_display_is_compact() {
        assert_eq!(Wire::Proto(MsgKind::YES).to_string(), "yes");
        assert_eq!(
            Wire::AlignTo { backup: 1, class: 2 }.to_string(),
            "align-to(p) from backup site1"
        );
        assert_eq!(
            Wire::TermDecision { backup: 0, commit: true }.to_string(),
            "decision(commit) from site0"
        );
        assert!(Wire::OutcomeIs { outcome: None, class: 1, settled: true }
            .to_string()
            .contains("settled"));
    }

    #[test]
    fn wire_is_comparable() {
        assert_eq!(Wire::Proto(MsgKind::YES), Wire::Proto(MsgKind::YES));
        assert_ne!(
            Wire::TermDecision { backup: 0, commit: true },
            Wire::TermDecision { backup: 0, commit: false }
        );
    }
}
