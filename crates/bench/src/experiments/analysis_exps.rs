//! Concurrency-set, theorem, and synchronicity experiments.

use std::collections::{HashSet, VecDeque};

use nonblocking_commit::model::canonical::canonical_2pc;
use nonblocking_commit::model::protocols::{catalog, central_2pc, decentralized_2pc};
use nonblocking_commit::model::reach::NodeId;
use nonblocking_commit::model::{sync_check, theorem, Analysis, ReachGraph, SiteId, StateId};

use crate::table::Table;

/// E4 — "Concurrency sets in the canonical 2PC protocol": the paper's
/// table, computed two ways — by adjacency on the canonical automaton
/// (the Lemma's shortcut) and exactly from the reachable state graph of
/// the instantiated decentralized 2PC. Both must agree with the paper.
pub fn e4_concurrency_sets() -> String {
    let mut out = String::new();

    let can = canonical_2pc();
    let mut t = Table::new(["state", "CS via adjacency (Lemma)", "CS exact (reach graph)"]);
    let p = decentralized_2pc(2);
    let a = Analysis::build(&p).expect("tiny");
    let fsa = p.fsa(SiteId(0));
    for name in ["q", "w", "a", "c"] {
        let adj = can.adjacency_names(can.state_by_name(name).expect("canonical state")).join(", ");
        let s = fsa.state_by_name(name).expect("state");
        let mut ids: Vec<StateId> = a
            .concurrency_set(SiteId(0), s)
            .into_iter()
            .map(|(_, t)| t)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        // Present in the paper's q, w, a, c order (declaration order).
        ids.sort_by_key(|t| t.0);
        let exact: Vec<String> = ids.into_iter().map(|t| fsa.state(t).name.clone()).collect();
        t.row([name.to_string(), format!("{{{adj}}}"), format!("{{{}}}", exact.join(", "))]);
    }
    out.push_str(&t.render());
    out.push_str("\nPaper table: CS(q)={q,w,a}  CS(w)={q,w,a,c}  CS(a)={q,w,a}  CS(c)={w,c}\n");
    out
}

/// E5 — "Blocking in the canonical 2PC protocol": both violation kinds,
/// with concrete witnesses from the exact analysis.
pub fn e5_blocking_2pc() -> String {
    let mut out = String::new();
    let can = canonical_2pc();
    out.push_str(&format!("{can}\n"));
    out.push_str("Lemma violations (canonical form):\n");
    for v in can.lemma_violations() {
        out.push_str(&format!("  - {v}\n"));
    }
    out.push('\n');
    for p in [central_2pc(3), decentralized_2pc(3)] {
        let r = theorem::check(&p).expect("analyzable");
        out.push_str(&format!("{r}"));
    }
    out.push_str(
        "\nBoth 2PC protocols can block for either reason, exactly as the \
         paper notes.\n",
    );
    out
}

/// E11 — the fundamental nonblocking theorem across the whole catalog.
pub fn e11_theorem_catalog() -> String {
    let mut t = Table::new([
        "protocol",
        "cond.1 violations",
        "cond.2 violations",
        "nonblocking?",
        "clean sites",
    ]);
    for n in [3usize, 4] {
        for p in catalog(n) {
            let r = theorem::check(&p).expect("analyzable");
            t.row([
                p.name.clone(),
                r.mixed_concurrency().count().to_string(),
                r.noncommittable_sees_commit().count().to_string(),
                if r.nonblocking() { "yes".into() } else { "NO".to_string() },
                format!("{}/{}", r.clean.iter().filter(|&&c| c).count(), n),
            ]);
        }
    }
    format!(
        "{}\nShape: both 2PC protocols violate both conditions; both 3PC \
         protocols satisfy the theorem at every site.\n",
        t.render()
    )
}

/// The largest lead, in transitions taken, of one still-executing site
/// over another on any path of `graph`, with the per-site counts where a
/// breadth-first walk over (node, counts) first meets it. Sites in a final
/// state are left out of the spread: a unilateral abort legitimately
/// finishes a site early. The walk ends because a commit protocol's
/// reachable graph has no cycle.
fn max_transition_lead(graph: &ReachGraph) -> (u32, Vec<u32>) {
    let n = graph.node(graph.initial()).locals.len();
    let init: (NodeId, Box<[u32]>) = (graph.initial(), vec![0u32; n].into_boxed_slice());
    let mut seen = HashSet::from([init.clone()]);
    let mut queue = VecDeque::from([init]);
    let (mut max_lead, mut witness) = (0u32, vec![0u32; n]);
    while let Some((node, depths)) = queue.pop_front() {
        let executing: Vec<u32> = (graph.node(node).locals.iter().enumerate())
            .filter(|&(i, &s)| !graph.class_of(SiteId(i as u32), s).is_final())
            .map(|(i, _)| depths[i])
            .collect();
        if let (Some(most), Some(least)) = (executing.iter().max(), executing.iter().min()) {
            if most - least > max_lead {
                max_lead = most - least;
                witness = depths.to_vec();
            }
        }
        for e in graph.edges(node) {
            let mut next = depths.clone();
            next[e.site.index()] += 1;
            if seen.insert((e.to, next.clone())) {
                queue.push_back((e.to, next));
            }
        }
    }
    (max_lead, witness)
}

/// E12 — synchronicity within one state transition, plus the committable
/// states per protocol ("a blocking protocol usually has only one
/// committable state, while nonblocking protocols always have more").
/// The lead column walks each protocol's retained graph.
pub fn e12_synchronicity() -> String {
    let mut t = Table::new([
        "protocol",
        "synchronous within one?",
        "max lead (executing sites)",
        "committable state classes",
    ]);
    for p in catalog(3) {
        let a = Analysis::build(&p).expect("analyzable");
        let r = sync_check::check_with(&p, &a);
        let (max_lead, _) = max_transition_lead(&ReachGraph::build(&p).expect("analyzable"));
        let mut committable = std::collections::BTreeSet::new();
        for site in p.sites() {
            let fsa = p.fsa(site);
            for i in 0..fsa.state_count() {
                let s = StateId(i as u32);
                if a.occupied(site, s) && a.committable(site, s) {
                    committable.insert(fsa.state(s).class.letter());
                }
            }
        }
        t.row([
            p.name.clone(),
            if r.synchronous_within_one() { "yes".into() } else { "NO".to_string() },
            max_lead.to_string(),
            committable.into_iter().map(String::from).collect::<Vec<_>>().join(", "),
        ]);
    }
    format!(
        "{}\nShape: every catalog protocol is synchronous within one state \
         transition; 2PC has only {{c}} committable, 3PC has {{p, c}}.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_matches_paper_table() {
        let s = e4_concurrency_sets();
        assert!(s.contains("{q, w, a, c}"), "{s}");
        assert!(s.contains("{w, c}"), "{s}");
    }

    #[test]
    fn e5_reports_both_kinds() {
        let s = e5_blocking_2pc();
        assert!(s.contains("adjacent to both"));
        assert!(s.contains("noncommittable"));
        assert!(s.contains("BLOCKING"));
    }

    #[test]
    fn e11_shape() {
        let s = e11_theorem_catalog();
        assert!(s.contains("NO"));
        assert!(s.contains("yes"));
    }

    #[test]
    fn e12_committable_classes() {
        let s = e12_synchronicity();
        assert!(s.contains("p, c"), "{s}");
    }

    #[test]
    fn commit_paths_have_lead_at_most_one() {
        use nonblocking_commit::model::protocols::{central_2pc, central_3pc, decentralized_3pc};
        for p in [central_2pc(3), central_3pc(3), decentralized_2pc(3), decentralized_3pc(3)] {
            let (lead, witness) = max_transition_lead(&ReachGraph::build(&p).unwrap());
            assert!(lead <= 1, "{}: still-executing lead {lead} at {witness:?}", p.name);
        }
    }

    #[test]
    fn lockstep_protocol_leads_by_at_most_one() {
        use nonblocking_commit::model::{
            Consume, Envelope, FsaBuilder, InitialMsg, MsgKind, Paradigm, Protocol, StateClass,
        };
        // Site 0 commits on the client's request and passes the commit on.
        let mut b0 = FsaBuilder::new("a");
        let q0 = b0.state("q", StateClass::Initial);
        let c0 = b0.state("c", StateClass::Committed);
        let commit = vec![Envelope::new(SiteId(1), MsgKind::COMMIT)];
        let request = Consume::one(SiteId::CLIENT, MsgKind::REQUEST);
        b0.transition(q0, c0, request, commit, None, "request / commit");
        let mut b1 = FsaBuilder::new("b");
        let q1 = b1.state("q", StateClass::Initial);
        let c1 = b1.state("c", StateClass::Committed);
        b1.transition(q1, c1, Consume::one(SiteId(0), MsgKind::COMMIT), vec![], None, "commit");
        let init = InitialMsg { src: SiteId::CLIENT, dst: SiteId(0), kind: MsgKind::REQUEST };
        let p = Protocol::new("token", Paradigm::Custom, vec![b0.build(), b1.build()], vec![init]);
        let (lead, witness) = max_transition_lead(&ReachGraph::build(&p).unwrap());
        assert!(lead <= 1, "still-executing lead {lead} at {witness:?}");
    }

    #[test]
    fn a_site_two_transitions_ahead_leads_by_two() {
        use nonblocking_commit::model::{
            Consume, Envelope, FsaBuilder, MsgKind, Paradigm, Protocol, StateClass,
        };
        // Site 0 takes two spontaneous transitions before site 1 can move.
        let mut b0 = FsaBuilder::new("runner");
        let q0 = b0.state("q", StateClass::Initial);
        let m0 = b0.state("m", StateClass::Custom(1));
        let z0 = b0.state("z", StateClass::Custom(2));
        let c0 = b0.state("c", StateClass::Committed);
        b0.transition(q0, m0, Consume::Spontaneous, vec![], None, "step1");
        let commit = vec![Envelope::new(SiteId(1), MsgKind::COMMIT)];
        b0.transition(m0, z0, Consume::Spontaneous, commit, None, "step2 / commit");
        b0.transition(z0, c0, Consume::one(SiteId(1), MsgKind::ACK), vec![], None, "ack /");
        let mut b1 = FsaBuilder::new("waiter");
        let q1 = b1.state("q", StateClass::Initial);
        let c1 = b1.state("c", StateClass::Committed);
        let ack = vec![Envelope::new(SiteId(0), MsgKind::ACK)];
        b1.transition(q1, c1, Consume::one(SiteId(0), MsgKind::COMMIT), ack, None, "commit / ack");
        let p = Protocol::new("lead-2", Paradigm::Custom, vec![b0.build(), b1.build()], vec![]);
        // While the runner sits in z (two transitions in) the waiter is
        // still executing at zero transitions.
        let (lead, witness) = max_transition_lead(&ReachGraph::build(&p).unwrap());
        assert_eq!((lead, witness), (2, vec![2, 0]));
    }
}
