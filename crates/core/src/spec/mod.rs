//! A text format for commit protocols.
//!
//! New protocols can be described without writing Rust: this module
//! parses a small line-oriented specification language into a
//! [`Protocol`](crate::Protocol), instantiated for a chosen site count.
//! The catalog in [`crate::protocols`] is written in it: each constructor
//! parses its `.nbc` file beside it.
//!
//! ## The format
//!
//! ```text
//! # Central-site two-phase commit, as a spec.
//! protocol my-2pc
//! paradigm central
//!
//! init request to site 0
//!
//! fsa coordinator site 0
//!   state q1 initial
//!   state w1 wait
//!   state a1 aborted
//!   state c1 committed
//!   q1 -> w1 : recv request from client ; send xact to slaves
//!   w1 -> c1 : recv yes from all slaves ; send commit to slaves ; vote yes
//!   w1 -> a1 : recv no from any slave ; send abort to slaves
//!   w1 -> a1 : spontaneous ; send abort to slaves ; vote no
//!
//! fsa slave sites 1..
//!   state q initial
//!   state w wait
//!   state a aborted
//!   state c committed
//!   q -> w : recv xact from site 0 ; send yes to site 0 ; vote yes
//!   q -> a : recv xact from site 0 ; send no to site 0 ; vote no
//!   w -> c : recv commit from site 0
//!   w -> a : recv abort from site 0
//! ```
//!
//! * `protocol NAME` — the rest of the line, which may be several words;
//!   the protocol is named `NAME (n=N)`.
//! * `paradigm` — `central`, `decentralized`, or `custom`.
//! * `init KIND to SITESET` — pre-loads client stimuli.
//! * `fsa NAME SITESET` — an automaton and which sites run it. Site sets:
//!   `site N`, `sites N..` (N to the last site), `sites N..M` (inclusive),
//!   `all` (every site).
//! * Transitions: `FROM -> TO : TRIGGER [; ACTION]*` where
//!   * `TRIGGER` is `spontaneous`, `recv KIND from SRC`,
//!     `recv KIND from all SET`, or `recv KIND from any SET`;
//!   * `ACTION` is `send KIND to SET` or `vote yes|no`;
//!   * an optional `; label TEXT` clause, one per transition, names it in
//!     figures (without one the label is `FROM -> TO`);
//!   * `SRC`/`SET` is `client`, `site N`, `slaves` (sites 1..), `peers`
//!     (all sites, including the sender), or `others` (all but the
//!     sender).
//! * Message kinds: the built-ins (`request`, `xact`, `yes`, `no`,
//!   `commit`, `abort`, `prepare`, `ack`) plus any further identifier,
//!   interned automatically.
//! * `#` starts a comment; indentation is free-form.

mod parser;

pub(crate) use parser::Spec;
pub use parser::{parse, ParseError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc};
    use crate::theorem;

    const CENTRAL_2PC: &str = include_str!("../protocols/central_2pc.nbc");
    const CENTRAL_3PC: &str = include_str!("../protocols/central_3pc.nbc");
    const DECENTRALIZED_2PC: &str = include_str!("../protocols/decentralized_2pc.nbc");

    #[test]
    fn spec_central_2pc_matches_catalog_analysis() {
        let spec = parse(CENTRAL_2PC, 3).unwrap();
        spec.validate_strict().unwrap();
        let hand = central_2pc(3);
        assert_eq!(spec.phase_count(), hand.phase_count());
        let rs = theorem::check(&spec).unwrap();
        let rh = theorem::check(&hand).unwrap();
        assert_eq!(rs.nonblocking(), rh.nonblocking());
        assert_eq!(rs.violations.len(), rh.violations.len());
        assert_eq!(rs.clean, rh.clean);
    }

    #[test]
    fn spec_central_3pc_is_nonblocking() {
        let spec = parse(CENTRAL_3PC, 4).unwrap();
        spec.validate_strict().unwrap();
        let hand = central_3pc(4);
        assert_eq!(spec.phase_count(), hand.phase_count());
        assert!(theorem::check(&spec).unwrap().nonblocking());
    }

    #[test]
    fn spec_decentralized_2pc_matches_catalog() {
        let spec = parse(DECENTRALIZED_2PC, 3).unwrap();
        spec.validate_strict().unwrap();
        let hand = decentralized_2pc(3);
        let rs = theorem::check(&spec).unwrap();
        let rh = theorem::check(&hand).unwrap();
        assert_eq!(rs.violations.len(), rh.violations.len());
    }
}
