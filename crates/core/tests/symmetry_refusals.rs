//! The automorphism test refuses what is not a symmetry: a slave that
//! differs from its peers in one vote tag, one state class, one initial
//! message or one entry of an `Any` list is left out of the class, the
//! rest are still reduced, and the streamed analysis of the lopsided
//! protocol still carries the retained build's facts and counts. The same
//! holds for decentralized peers, which message each other: the peer left
//! out is a fixed site the others talk to, and they are still reduced.

mod quotient;

use nbc_core::protocols::{central_3pc, decentralized_2pc, decentralized_3pc};
use nbc_core::{
    Consume, Fsa, FsaBuilder, InitialMsg, MsgKind, Protocol, SiteId, StateClass, StateCodec,
    Symmetry, Transition, Vote,
};

fn reduced(p: &Protocol) -> Vec<Vec<u32>> {
    let codec = StateCodec::new(p).unwrap();
    Symmetry::of(p, &codec).classes().map(|c| c.iter().map(|s| s.0).collect()).collect()
}

/// `fsa` rebuilt with its states and transitions passed through `edit`.
fn edited(
    fsa: &Fsa,
    edit: impl FnOnce(&mut Vec<(String, StateClass)>, &mut Vec<Transition>),
) -> Fsa {
    let mut states: Vec<(String, StateClass)> =
        fsa.states().iter().map(|s| (s.name.clone(), s.class)).collect();
    let mut transitions = fsa.transitions().to_vec();
    edit(&mut states, &mut transitions);
    let mut b = FsaBuilder::new(fsa.role.clone());
    for (name, class) in states {
        b.state(name, class);
    }
    b.initial(fsa.initial());
    for t in transitions {
        b.transition(t.from, t.to, t.consume, t.emit, t.vote, t.label);
    }
    b.build()
}

/// Central 3PC n=4 with site `site`'s automaton edited and `extra`
/// initial messages added.
fn central_3pc_but(
    site: usize,
    extra: Vec<InitialMsg>,
    edit: impl FnOnce(&mut Vec<(String, StateClass)>, &mut Vec<Transition>),
) -> Protocol {
    let p = central_3pc(4);
    let mut fsas = p.fsas().to_vec();
    fsas[site] = edited(&fsas[site], edit);
    let tape = p.initial_msgs().iter().copied().chain(extra).collect();
    Protocol::new("central 3PC but", p.paradigm, fsas, tape)
}

#[test]
fn a_site_that_differs_in_one_detail_is_not_interchangeable() {
    let slave_yes = |ts: &Vec<Transition>| {
        ts.iter().position(|t| t.vote == Some(Vote::Yes)).expect("the slave's yes vote")
    };
    let cases: Vec<(&str, Protocol)> = vec![
        (
            "slave 2's yes transition carries no vote tag",
            central_3pc_but(2, vec![], |_, ts| {
                let yes = slave_yes(ts);
                ts[yes].vote = None;
            }),
        ),
        (
            "slave 2's wait state is of another class",
            central_3pc_but(2, vec![], |states, _| {
                let w = states.iter().position(|s| s.1 == StateClass::Wait).unwrap();
                states[w].1 = StateClass::Custom(7);
            }),
        ),
        (
            "slave 2 has a message waiting at the start",
            central_3pc_but(
                0,
                vec![InitialMsg { src: SiteId(0), dst: SiteId(2), kind: MsgKind::ABORT }],
                |_, _| {},
            ),
        ),
        (
            "the coordinator does not listen for slave 2's no",
            central_3pc_but(0, vec![], |_, ts| {
                for t in ts {
                    if let Consume::Any(srcs) = &mut t.consume {
                        srcs.retain(|&(s, _)| s != SiteId(2));
                    }
                }
            }),
        ),
    ];
    for (what, p) in &cases {
        assert_eq!(reduced(p), [[1, 3]], "{what}");
        quotient::assert_streamed_equals_retained(what, p);
    }
    // The same edit made to every slave leaves them interchangeable.
    let mut p = central_3pc(4);
    for site in 1..4 {
        let mut fsas = p.fsas().to_vec();
        fsas[site] = edited(&fsas[site], |_, ts| {
            let yes = slave_yes(ts);
            ts[yes].vote = None;
        });
        p = Protocol::new("central 3PC, no tags", p.paradigm, fsas, p.initial_msgs().to_vec());
    }
    assert_eq!(reduced(&p), [[1, 2, 3]]);
    quotient::assert_streamed_equals_retained("no slave tags its yes", &p);
}

#[test]
fn a_peer_that_differs_in_one_detail_leaves_the_others_reduced() {
    let but = |p: Protocol,
               site: usize,
               edit: fn(&mut Vec<(String, StateClass)>, &mut Vec<Transition>)| {
        let mut fsas = p.fsas().to_vec();
        fsas[site] = edited(&fsas[site], edit);
        Protocol::new(
            format!("{} but site {site}", p.name),
            p.paradigm,
            fsas,
            p.initial_msgs().to_vec(),
        )
    };
    let untagged: fn(&mut Vec<(String, StateClass)>, &mut Vec<Transition>) = |_, ts| {
        let yes = ts.iter().position(|t| t.vote == Some(Vote::Yes)).expect("the peer's yes vote");
        ts[yes].vote = None;
    };
    let reclassed: fn(&mut Vec<(String, StateClass)>, &mut Vec<Transition>) = |states, _| {
        let w = states.iter().position(|s| s.1 == StateClass::Wait).unwrap();
        states[w].1 = StateClass::Custom(7);
    };
    let cases = [
        (but(decentralized_3pc(4), 3, untagged), [vec![0, 1, 2]]),
        (but(decentralized_3pc(4), 0, reclassed), [vec![1, 2, 3]]),
        (but(decentralized_2pc(5), 2, untagged), [vec![0, 1, 3, 4]]),
    ];
    for (p, peers) in &cases {
        assert_eq!(reduced(p), *peers, "{}", p.name);
        quotient::assert_streamed_equals_retained(&p.name, p);
    }
}

/// Buffer states added by synthesis keep the peers interchangeable: the
/// decentralized k-phase protocols reduce all their sites as one class of
/// peers, and stream to the retained build's facts and counts.
#[test]
fn decentralized_k_phase_peers_are_reduced_and_stream_to_the_retained_facts() {
    for (n, k) in [(3, 4), (4, 4), (3, 5)] {
        let p = nbc_core::kpc::k_phase_decentralized(n, k).unwrap();
        assert_eq!(reduced(&p), [(0..n as u32).collect::<Vec<_>>()], "{}", p.name);
        quotient::assert_streamed_equals_retained(&p.name, &p);
    }
}
