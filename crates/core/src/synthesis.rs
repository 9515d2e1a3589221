//! Buffer-state synthesis: the paper's method for *designing* nonblocking
//! protocols.
//!
//! The fundamental nonblocking theorem provides a way to *check* whether a
//! protocol is nonblocking, but not a construction. The paper's
//! construction is: *blocking protocols are made nonblocking by adding
//! buffer states* — a "prepare to commit" state is inserted before each
//! commit state, turning the final decision into an announced, acknowledged
//! round. [`make_nonblocking`] implements this for instantiated protocols
//! of both paradigms (the canonical single-automaton version lives in
//! [`crate::canonical::insert_buffer_states`]):
//!
//! * **Central site** — the coordinator transition `w → c` (collect votes,
//!   broadcast `commit`) splits into `w → p` (collect votes, broadcast
//!   `prepare`) and `p → c` (collect `ack`s, broadcast `commit`); each
//!   slave transition `w → c` (receive `commit`) splits into `w → p`
//!   (receive `prepare`, send `ack`) and `p → c` (receive `commit`).
//! * **Decentralized** — each peer transition `w → c` (collect all yes
//!   votes) splits into `w → p` (collect all yes votes, broadcast
//!   `prepare`) and `p → c` (collect all `prepare`s).
//!
//! Applied to the catalog 2PC protocols this produces exactly the catalog
//! 3PC protocols; the result always satisfies the theorem, which the tests
//! confirm via the independent checker.

use std::fmt;

use crate::fsa::{Consume, Envelope, Fsa, FsaBuilder, StateClass};
use crate::ids::{MsgKind, SiteId, StateId};
use crate::protocol::{Paradigm, Protocol};
use crate::theorem;

/// Errors from [`make_nonblocking`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// The synthesis rules are defined for the paper's two paradigms only.
    UnsupportedParadigm,
    /// Transforming the protocol produced something the theorem checker
    /// still rejects (indicates a protocol outside the shape the method
    /// handles — e.g. commit states reachable without a vote collection).
    StillBlocking {
        /// Number of theorem violations remaining after the transform.
        violations: usize,
    },
    /// Analysis failure (e.g. graph bound exceeded).
    Analysis(
        /// The underlying analysis error.
        crate::error::ProtocolError,
    ),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedParadigm => {
                write!(
                    f,
                    "buffer-state synthesis supports the central-site and decentralized paradigms"
                )
            }
            Self::StillBlocking { violations } => {
                write!(f, "synthesized protocol still blocking ({violations} violations)")
            }
            Self::Analysis(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Make a blocking protocol nonblocking by inserting buffer states.
///
/// If the protocol already satisfies the fundamental nonblocking theorem it
/// is returned unchanged. The result is re-verified with the theorem
/// checker; see [`SynthesisError::StillBlocking`].
pub fn make_nonblocking(protocol: &Protocol) -> Result<Protocol, SynthesisError> {
    let report = theorem::check(protocol).map_err(SynthesisError::Analysis)?;
    if report.nonblocking() {
        return Ok(protocol.clone());
    }

    let transformed = buffer_once(protocol)?;

    let after = theorem::check(&transformed).map_err(SynthesisError::Analysis)?;
    if !after.nonblocking() {
        return Err(SynthesisError::StillBlocking { violations: after.violations.len() });
    }
    Ok(transformed)
}

/// Apply one buffer-insertion round *unconditionally* — even to an already
/// nonblocking protocol. Used by the k-phase family ([`crate::kpc`]) and
/// the "does a fourth phase buy anything?" ablation.
pub(crate) fn buffer_once(protocol: &Protocol) -> Result<Protocol, SynthesisError> {
    let (prepare_kind, ack_kind) = fresh_kinds(protocol);
    match protocol.paradigm {
        Paradigm::CentralSite => Ok(central_transform(protocol, prepare_kind, ack_kind)),
        Paradigm::Decentralized => Ok(decentralized_transform(protocol, prepare_kind)),
        Paradigm::Custom => Err(SynthesisError::UnsupportedParadigm),
    }
}

/// Pick `prepare`/`ack` message kinds not already used by the protocol.
fn fresh_kinds(protocol: &Protocol) -> (MsgKind, MsgKind) {
    let mut max_used = 0u16;
    let mut prepare_free = true;
    let mut ack_free = true;
    let mut note = |k: MsgKind| {
        max_used = max_used.max(k.0);
        if k == MsgKind::PREPARE {
            prepare_free = false;
        }
        if k == MsgKind::ACK {
            ack_free = false;
        }
    };
    for fsa in protocol.fsas() {
        for t in fsa.transitions() {
            match &t.consume {
                Consume::Spontaneous => {}
                Consume::All(v) | Consume::Any(v) | Consume::Quorum { srcs: v, .. } => {
                    for &(_, k) in v {
                        note(k);
                    }
                }
            }
            for e in &t.emit {
                note(e.kind);
            }
        }
    }
    for m in protocol.initial_msgs() {
        note(m.kind);
    }
    if prepare_free && ack_free {
        (MsgKind::PREPARE, MsgKind::ACK)
    } else {
        let base = (max_used + 1).max(MsgKind::FIRST_CUSTOM.0);
        (MsgKind(base), MsgKind(base + 1))
    }
}

/// Rebuild one FSA with every commit-entering transition buffered.
///
/// `on_split` produces, for a given original transition, the pieces of the
/// two replacement transitions:
/// `(enter_emit, exit_consume, exit_emit)` where the enter transition keeps
/// the original consume (and vote tag) but emits `enter_emit`, and the exit
/// transition `p → c` consumes `exit_consume` and emits `exit_emit`.
fn buffer_fsa(
    fsa: &Fsa,
    mut on_split: impl FnMut(&crate::fsa::Transition) -> (Vec<Envelope>, Consume, Vec<Envelope>),
) -> Fsa {
    let mut b = FsaBuilder::new(fsa.role.clone());
    // Copy states verbatim (ids preserved), then append buffers as needed.
    for info in fsa.states() {
        b.state(info.name.clone(), info.class);
    }
    b.initial(fsa.initial());
    // Name new buffers after the ones already present ("p", then "p2"...).
    let mut buffer_count =
        fsa.states().iter().filter(|i| i.class == StateClass::Prepared).count() as u32;
    for t in fsa.transitions() {
        if fsa.is_commit(t.to) && !fsa.is_commit(t.from) {
            let p = b.state(
                if buffer_count == 0 { "p".to_string() } else { format!("p{}", buffer_count + 1) },
                StateClass::Prepared,
            );
            buffer_count += 1;
            let (enter_emit, exit_consume, exit_emit) = on_split(t);
            b.transition(
                t.from,
                p,
                t.consume.clone(),
                enter_emit,
                t.vote,
                format!("{} [buffered: prepare]", t.label),
            );
            b.transition(
                p,
                StateId(t.to.0),
                exit_consume,
                exit_emit,
                None,
                "commit round".to_string(),
            );
        } else {
            b.transition(t.from, t.to, t.consume.clone(), t.emit.clone(), t.vote, t.label.clone());
        }
    }
    b.build()
}

fn central_transform(protocol: &Protocol, prepare: MsgKind, ack: MsgKind) -> Protocol {
    let coord = SiteId(0);
    let slaves: Vec<SiteId> = (1..protocol.n_sites() as u32).map(SiteId).collect();

    let mut fsas = Vec::with_capacity(protocol.n_sites());
    for site in protocol.sites() {
        let fsa = protocol.fsa(site);
        let new_fsa = if site == coord {
            buffer_fsa(fsa, |t| {
                // Coordinator: announce prepare instead of commit, then
                // collect acks and broadcast the original commit emission.
                let enter_emit = slaves.iter().map(|&s| Envelope::new(s, prepare)).collect();
                let exit_consume = Consume::All(slaves.iter().map(|&s| (s, ack)).collect());
                (enter_emit, exit_consume, t.emit.clone())
            })
        } else {
            buffer_fsa(fsa, |t| {
                // Slave: receiving prepare replaces receiving commit; ack
                // it; then wait for the actual commit.
                let enter_emit = vec![Envelope::new(coord, ack)];
                let exit_consume = t.consume.clone();
                // The enter transition must consume `prepare` rather than
                // the original `commit`; rewrite below.
                (enter_emit, exit_consume, vec![])
            })
        };
        fsas.push(new_fsa);
    }

    // Second pass for slaves: the buffered enter transition still consumes
    // `commit`; retarget it to `prepare`.
    for (i, fsa) in fsas.iter_mut().enumerate().skip(1) {
        let rebuilt = retarget_enter_consume(fsa, MsgKind::COMMIT, prepare);
        let _ = i;
        *fsa = rebuilt;
    }

    let mut out = Protocol::new(
        format!("{} + buffer states", protocol.name),
        Paradigm::CentralSite,
        fsas,
        protocol.initial_msgs().to_vec(),
    );
    out.name_msg(prepare, "prepare'");
    out.name_msg(ack, "ack'");
    out
}

/// Rewrite transitions *into Prepared states* so that any consumed message
/// of kind `from_kind` becomes `to_kind`.
fn retarget_enter_consume(fsa: &Fsa, from_kind: MsgKind, to_kind: MsgKind) -> Fsa {
    let mut b = FsaBuilder::new(fsa.role.clone());
    for info in fsa.states() {
        b.state(info.name.clone(), info.class);
    }
    b.initial(fsa.initial());
    for t in fsa.transitions() {
        let into_prepared = fsa.state(t.to).class == StateClass::Prepared;
        let consume = if into_prepared {
            match &t.consume {
                Consume::Spontaneous => Consume::Spontaneous,
                Consume::All(v) => Consume::All(
                    v.iter().map(|&(s, k)| (s, if k == from_kind { to_kind } else { k })).collect(),
                ),
                Consume::Any(v) => Consume::Any(
                    v.iter().map(|&(s, k)| (s, if k == from_kind { to_kind } else { k })).collect(),
                ),
                Consume::Quorum { k: quorum, srcs } => Consume::Quorum {
                    k: *quorum,
                    srcs: srcs
                        .iter()
                        .map(|&(s, k)| (s, if k == from_kind { to_kind } else { k }))
                        .collect(),
                },
            }
        } else {
            t.consume.clone()
        };
        b.transition(t.from, t.to, consume, t.emit.clone(), t.vote, t.label.clone());
    }
    b.build()
}

fn decentralized_transform(protocol: &Protocol, prepare: MsgKind) -> Protocol {
    let everyone: Vec<SiteId> = protocol.sites().collect();
    let fsas = protocol
        .sites()
        .map(|site| {
            buffer_fsa(protocol.fsa(site), |_t| {
                // Peer: after collecting the yes votes, broadcast prepare;
                // commit once prepare has arrived from every peer.
                let enter_emit = everyone.iter().map(|&s| Envelope::new(s, prepare)).collect();
                let exit_consume = Consume::All(everyone.iter().map(|&s| (s, prepare)).collect());
                (enter_emit, exit_consume, vec![])
            })
        })
        .collect();
    let mut out = Protocol::new(
        format!("{} + buffer states", protocol.name),
        Paradigm::Decentralized,
        fsas,
        protocol.initial_msgs().to_vec(),
    );
    out.name_msg(prepare, "prepare'");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    #[test]
    fn central_2pc_becomes_nonblocking() {
        for n in 2..=4 {
            let p2 = central_2pc(n);
            let p3 = make_nonblocking(&p2).unwrap();
            let r = theorem::check(&p3).unwrap();
            assert!(r.nonblocking(), "{}: {r}", p3.name);
            assert_eq!(p3.phase_count(), 3);
            p3.validate_strict().unwrap();
        }
    }

    #[test]
    fn decentralized_2pc_becomes_nonblocking() {
        for n in 2..=4 {
            let p2 = decentralized_2pc(n);
            let p3 = make_nonblocking(&p2).unwrap();
            let r = theorem::check(&p3).unwrap();
            assert!(r.nonblocking(), "{}: {r}", p3.name);
            assert_eq!(p3.phase_count(), 3);
            p3.validate_strict().unwrap();
        }
    }

    #[test]
    fn synthesized_central_matches_handwritten_3pc_shape() {
        let synth = make_nonblocking(&central_2pc(3)).unwrap();
        let hand = central_3pc(3);
        for site in synth.sites() {
            assert_eq!(synth.fsa(site).state_count(), hand.fsa(site).state_count(), "{site}");
            assert_eq!(
                synth.fsa(site).transitions().len(),
                hand.fsa(site).transitions().len(),
                "{site}"
            );
        }
    }

    #[test]
    fn synthesized_decentralized_matches_handwritten_3pc_shape() {
        let synth = make_nonblocking(&decentralized_2pc(3)).unwrap();
        let hand = decentralized_3pc(3);
        for site in synth.sites() {
            assert_eq!(synth.fsa(site).state_count(), hand.fsa(site).state_count());
            assert_eq!(synth.fsa(site).transitions().len(), hand.fsa(site).transitions().len());
        }
    }

    #[test]
    fn nonblocking_input_returned_unchanged() {
        let p3 = central_3pc(3);
        let out = make_nonblocking(&p3).unwrap();
        assert_eq!(out.name, p3.name);
        assert_eq!(out.phase_count(), 3);
    }

    #[test]
    fn synthesized_protocols_preserve_both_outcomes() {
        use crate::fsa::StateClass;
        use crate::reach::NodeId;
        let p = make_nonblocking(&central_2pc(3)).unwrap();
        let a = Analysis::build(&p).unwrap();
        let g = a.graph().unwrap();
        let mut commit = false;
        let mut abort = false;
        for id in 0..g.node_count() as NodeId {
            if g.is_final(id) {
                let all_commit = g
                    .node(id)
                    .locals
                    .iter()
                    .enumerate()
                    .all(|(i, &s)| g.class_of(SiteId(i as u32), s) == StateClass::Committed);
                if all_commit {
                    commit = true;
                } else {
                    abort = true;
                }
            }
            assert!(!g.is_inconsistent(id));
            assert!(!g.is_deadlocked(id));
        }
        assert!(commit && abort);
    }

    #[test]
    fn custom_paradigm_rejected() {
        let mut p = central_2pc(2);
        p.paradigm = Paradigm::Custom;
        assert!(matches!(make_nonblocking(&p), Err(SynthesisError::UnsupportedParadigm)));
    }

    #[test]
    fn fresh_kinds_avoid_collisions() {
        // A protocol already using PREPARE must get custom kinds.
        let p3 = central_3pc(3);
        let (prep, ack) = fresh_kinds(&p3);
        assert!(prep.0 >= MsgKind::FIRST_CUSTOM.0);
        assert!(ack.0 > prep.0);
        // 2PC doesn't use them, so the well-known kinds are chosen.
        let (prep, ack) = fresh_kinds(&central_2pc(3));
        assert_eq!((prep, ack), (MsgKind::PREPARE, MsgKind::ACK));
    }
}
