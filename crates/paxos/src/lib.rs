//! Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit") as a
//! Skeen-style FSA commit protocol.
//!
//! The protocol runs one consensus instance per resource manager's vote.
//! A *leader* (site 0, playing the transaction manager colocated with the
//! first resource manager) distributes the transaction, the remaining
//! resource managers broadcast their votes to a bank of `2f + 1`
//! *acceptors*, and each acceptor relays the outcome of its vote instances
//! to the leader. The leader commits once any `f + 1` acceptors report
//! unanimous yes votes — a majority quorum — so up to `f` acceptor
//! crashes cannot block the decision.
//!
//! With `f = 0` there is a single acceptor and the quorum is 1-of-1: the
//! message flow degenerates to central-site two-phase commit with the
//! acceptor interposed between the slaves and the coordinator (Gray &
//! Lamport obtain exact 2PC by colocating that acceptor with the leader;
//! our model keeps it a distinct site, which costs the two relay messages
//! accounted for in [`paxos_cost`]).
//!
//! Site layout for [`paxos_commit`]`(n, f)`:
//!
//! | sites            | role                                   |
//! |------------------|----------------------------------------|
//! | `0`              | leader (TM + first RM)                 |
//! | `1 .. n`         | resource managers                      |
//! | `n .. n + 2f+1`  | acceptors                              |
//!
//! By Skeen's fundamental nonblocking theorem the protocol is formally
//! *blocking* — the leader's wait state is adjacent to both its commit
//! and abort states, exactly like 2PC — but the theorem's adversary may
//! crash any site. Paxos Commit's guarantee is conditional: it does not
//! block as long as at most `f` *acceptors* crash (and the participants
//! stay up). `nbc check` verifies that conditional guarantee against the
//! protocol's [`QuorumSpec`] instead of the unconditional theorem verdict.

use nbc_core::fsa::{Consume, Envelope, FsaBuilder, StateClass, Vote};
use nbc_core::ids::{MsgKind, SiteId};
use nbc_core::protocol::{InitialMsg, Paradigm, Protocol, QuorumSpec};

/// Acceptor-to-leader relay: "all my vote instances chose Prepared".
pub(crate) const ACK_COMMIT: MsgKind = MsgKind::FIRST_CUSTOM;
/// Acceptor-to-leader relay: "some vote instance chose Aborted".
pub(crate) const ACK_ABORT: MsgKind = MsgKind(MsgKind::FIRST_CUSTOM.0 + 1);

/// Acceptor state class: every vote instance decided yes, outcome relayed.
pub(crate) const ACC_COMMITTABLE: StateClass = StateClass::Custom(0);
/// Acceptor state class: some vote instance decided no, outcome relayed.
pub(crate) const ACC_ABORTING: StateClass = StateClass::Custom(1);

/// Build Paxos Commit for `n >= 2` participants (1 leader + `n-1`
/// resource managers) and `2f + 1` acceptors, `n + 2f + 1` sites total.
///
/// # Panics
/// Panics if `n < 2`.
pub fn paxos_commit(n: usize, f: usize) -> Protocol {
    assert!(n >= 2, "paxos commit needs a leader and >=1 resource manager");
    let leader = SiteId(0);
    let rms: Vec<SiteId> = (1..n as u32).map(SiteId).collect();
    let acceptors: Vec<SiteId> = (n as u32..(n + 2 * f + 1) as u32).map(SiteId).collect();

    // Leader (site 0): 2PC coordinator whose commit trigger is a majority
    // of acceptor relays instead of direct slave votes.
    let mut lb = FsaBuilder::new("leader");
    let q1 = lb.state("q1", StateClass::Initial);
    let w1 = lb.state("w1", StateClass::Wait);
    let a1 = lb.state("a1", StateClass::Aborted);
    let c1 = lb.state("c1", StateClass::Committed);

    let to_all = |kind: MsgKind| -> Vec<Envelope> {
        rms.iter().chain(acceptors.iter()).map(|&s| Envelope::new(s, kind)).collect()
    };
    lb.transition(
        q1,
        w1,
        Consume::one(SiteId::CLIENT, MsgKind::REQUEST),
        rms.iter().map(|&s| Envelope::new(s, MsgKind::XACT)).collect(),
        None,
        "request / xact_2..xact_n",
    );
    lb.transition(
        w1,
        c1,
        Consume::Quorum {
            k: (f + 1) as u32,
            srcs: acceptors.iter().map(|&s| (s, ACK_COMMIT)).collect(),
        },
        to_all(MsgKind::COMMIT),
        Some(Vote::Yes),
        "(yes_1) f+1 x ack-commit / commit_*",
    );
    lb.transition(
        w1,
        a1,
        Consume::Any(acceptors.iter().map(|&s| (s, ACK_ABORT)).collect()),
        to_all(MsgKind::ABORT),
        None,
        "ack-abort_j / abort_*",
    );
    lb.transition(
        w1,
        a1,
        Consume::Spontaneous,
        to_all(MsgKind::ABORT),
        Some(Vote::No),
        "(no_1) / abort_*",
    );

    let mut fsas = vec![lb.build()];

    // Resource managers (sites 1..n): 2PC slaves that vote to the acceptor
    // bank instead of the coordinator.
    for _ in &rms {
        let mut rb = FsaBuilder::new("rm");
        let qi = rb.state("q", StateClass::Initial);
        let wi = rb.state("w", StateClass::Wait);
        let ai = rb.state("a", StateClass::Aborted);
        let ci = rb.state("c", StateClass::Committed);
        rb.transition(
            qi,
            wi,
            Consume::one(leader, MsgKind::XACT),
            acceptors.iter().map(|&s| Envelope::new(s, MsgKind::YES)).collect(),
            Some(Vote::Yes),
            "xact / yes_to_acceptors",
        );
        rb.transition(
            qi,
            ai,
            Consume::one(leader, MsgKind::XACT),
            acceptors.iter().map(|&s| Envelope::new(s, MsgKind::NO)).collect(),
            Some(Vote::No),
            "xact / no_to_acceptors",
        );
        rb.transition(wi, ci, Consume::one(leader, MsgKind::COMMIT), vec![], None, "commit /");
        rb.transition(wi, ai, Consume::one(leader, MsgKind::ABORT), vec![], None, "abort /");
        fsas.push(rb.build());
    }

    // Acceptors (sites n..n+2f+1): each runs all n-1 vote instances,
    // collapsed into one FSA move — unanimous yes relays ack-commit, any
    // no relays ack-abort. The acceptor then learns the decision from the
    // leader so its log records the final outcome.
    for _ in &acceptors {
        let mut ab = FsaBuilder::new("acceptor");
        let qj = ab.state("q", StateClass::Initial);
        let caj = ab.state("ca", ACC_COMMITTABLE);
        let aaj = ab.state("aa", ACC_ABORTING);
        let aj = ab.state("a", StateClass::Aborted);
        let cj = ab.state("c", StateClass::Committed);
        ab.transition(
            qj,
            caj,
            Consume::All(rms.iter().map(|&s| (s, MsgKind::YES)).collect()),
            vec![Envelope::new(leader, ACK_COMMIT)],
            None,
            "yes_2..yes_n / ack-commit",
        );
        ab.transition(
            qj,
            aaj,
            Consume::Any(rms.iter().map(|&s| (s, MsgKind::NO)).collect()),
            vec![Envelope::new(leader, ACK_ABORT)],
            None,
            "no_i / ack-abort",
        );
        ab.transition(caj, cj, Consume::one(leader, MsgKind::COMMIT), vec![], None, "commit /");
        ab.transition(caj, aj, Consume::one(leader, MsgKind::ABORT), vec![], None, "abort /");
        ab.transition(aaj, aj, Consume::one(leader, MsgKind::ABORT), vec![], None, "abort /");
        fsas.push(ab.build());
    }

    let mut p = Protocol::new(
        format!("paxos-commit (n={n}, f={f})"),
        Paradigm::Custom,
        fsas,
        vec![InitialMsg { src: SiteId::CLIENT, dst: leader, kind: MsgKind::REQUEST }],
    )
    .with_quorum(QuorumSpec { f, acceptors_from: n });
    p.name_msg(ACK_COMMIT, "ack-commit");
    p.name_msg(ACK_ABORT, "ack-abort");
    p
}

/// Happy-path (all-yes, no-failure) cost of committing one transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CostRow {
    /// Network messages sent (the injected client request is not counted).
    pub messages: usize,
    /// Forced log writes: in this repo's engine, one per FSA transition
    /// plus one decision record per site.
    pub stable_writes: usize,
    /// Sequential message delays until the last site learns the decision.
    pub delays: usize,
}

/// Measured-model cost of [`paxos_commit`]`(n, f)` as this repo's engine
/// executes it: `(n-1)` xacts + `(n-1)(2f+1)` votes + `2f+1` relays +
/// `(n-1) + (2f+1)` decision broadcasts; 3 stable writes per site
/// (2 transitions + 1 decision record); critical path
/// xact → yes → ack-commit → commit.
pub fn paxos_cost(n: usize, f: usize) -> CostRow {
    let a = 2 * f + 1;
    CostRow {
        messages: (n - 1) + (n - 1) * a + a + (n - 1) + a,
        stable_writes: 3 * (n + a),
        delays: 4,
    }
}

/// Measured-model cost of this repo's `central_2pc(n)`: `3(n-1)`
/// messages, 3 stable writes per site, xact → yes → commit.
pub fn central_2pc_cost(n: usize) -> CostRow {
    CostRow { messages: 3 * (n - 1), stable_writes: 3 * n, delays: 3 }
}

/// Measured-model cost of this repo's `central_3pc(n)`: five rounds of
/// `n - 1` messages each, 4 stable writes per site (3 transitions + 1
/// decision record), xact → yes → prepare → ack → commit. Skeen's 3PC is
/// not in Gray & Lamport's table; this row anchors the comparison.
pub fn central_3pc_cost(n: usize) -> CostRow {
    CostRow { messages: 5 * (n - 1), stable_writes: 4 * n, delays: 5 }
}

/// Gray & Lamport's analytic prediction for Paxos Commit with `n_rms`
/// resource managers (their section 6: `n(f+3) + f` messages counting
/// the co-location optimizations, `n + f + 1` stable writes, 5 message
/// delays dropping to 4 at `f = 0`).
pub fn gl_paxos_cost(n_rms: usize, f: usize) -> CostRow {
    CostRow {
        messages: n_rms * (f + 3) + f,
        stable_writes: n_rms + f + 1,
        delays: if f == 0 { 4 } else { 5 },
    }
}

/// Gray & Lamport's analytic prediction for 2PC with `n_rms` resource
/// managers: `3n - 1` messages, `n + 1` stable writes, 4 delays.
pub fn gl_2pc_cost(n_rms: usize) -> CostRow {
    CostRow { messages: 3 * n_rms - 1, stable_writes: n_rms + 1, delays: 4 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_strictly_across_f() {
        for (n, f) in [(2, 0), (3, 0), (3, 1), (3, 2), (5, 1)] {
            let p = paxos_commit(n, f);
            p.validate_strict().unwrap_or_else(|e| panic!("paxos_commit({n}, {f}) invalid: {e}"));
            assert_eq!(p.n_sites(), n + 2 * f + 1);
            assert_eq!(p.n_participants(), n);
            assert_eq!(p.quorum(), Some(QuorumSpec { f, acceptors_from: n }));
        }
    }

    #[test]
    fn two_phases_like_2pc() {
        assert_eq!(paxos_commit(3, 1).phase_count(), 2);
    }

    #[test]
    fn acceptor_partition() {
        let p = paxos_commit(3, 1);
        assert!(!p.is_acceptor(0) && !p.is_acceptor(2));
        assert!(p.is_acceptor(3) && p.is_acceptor(5));
    }

    #[test]
    fn leader_commits_on_majority_quorum() {
        let p = paxos_commit(4, 2);
        let leader = p.fsa(SiteId(0));
        let commit = leader
            .transitions()
            .iter()
            .find(|t| leader.is_commit(t.to))
            .expect("leader has a commit transition");
        match &commit.consume {
            Consume::Quorum { k, srcs } => {
                assert_eq!(*k, 3); // f + 1 of 2f + 1
                assert_eq!(srcs.len(), 5);
                assert!(srcs.iter().all(|&(s, k)| s.index() >= 4 && k == ACK_COMMIT));
            }
            other => panic!("expected quorum trigger, got {other:?}"),
        }
    }

    #[test]
    fn f0_is_a_one_of_one_quorum() {
        let p = paxos_commit(3, 0);
        let leader = p.fsa(SiteId(0));
        let quorums: Vec<_> = leader
            .transitions()
            .iter()
            .filter_map(|t| match &t.consume {
                Consume::Quorum { k, srcs } => Some((*k, srcs.len())),
                _ => None,
            })
            .collect();
        assert_eq!(quorums, vec![(1, 1)]);
    }

    #[test]
    fn custom_msg_kinds_are_named() {
        let p = paxos_commit(2, 0);
        assert_eq!(p.msg_name(ACK_COMMIT), "ack-commit");
        assert_eq!(p.msg_name(ACK_ABORT), "ack-abort");
    }

    #[test]
    fn cost_model_n3() {
        // n=3 participants, f=0: 2 xacts + 2 votes + 1 relay + 3
        // decisions = 8 messages; 4 sites x 3 writes = 12.
        assert_eq!(paxos_cost(3, 0), CostRow { messages: 8, stable_writes: 12, delays: 4 });
        assert_eq!(central_2pc_cost(3), CostRow { messages: 6, stable_writes: 9, delays: 3 });
        assert_eq!(central_3pc_cost(3), CostRow { messages: 10, stable_writes: 12, delays: 5 });
        // Each extra pair of acceptors costs n-1 vote fan-outs plus a
        // relay plus a decision broadcast.
        assert_eq!(paxos_cost(3, 1).messages, 8 + 2 * (2 + 1 + 1));
    }

    #[test]
    fn gl_predictions_match_the_paper_table() {
        // Gray & Lamport, n = 5 RMs: 2PC 14 msgs / 6 writes; Paxos
        // Commit f=1: 5*4 + 1 = 21 msgs / 7 writes / 5 delays.
        assert_eq!(gl_2pc_cost(5), CostRow { messages: 14, stable_writes: 6, delays: 4 });
        assert_eq!(gl_paxos_cost(5, 1), CostRow { messages: 21, stable_writes: 7, delays: 5 });
        assert_eq!(gl_paxos_cost(5, 0).delays, 4);
    }

    #[test]
    #[should_panic(expected = "leader and >=1 resource manager")]
    fn rejects_single_site() {
        paxos_commit(1, 0);
    }
}
