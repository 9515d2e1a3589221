//! Site symmetry from the outside: the group `nbc_core::symmetry` finds,
//! its canonical form and orbit sizes against brute force on every
//! reachable state, the count that refutes reducing two classes that talk
//! to each other, and what the reduction buys — the paper's concurrency
//! sets "for any n", checked to n = 16.
//!
//! A permuted state is built here on the decoded [`GlobalState`] — sites
//! renamed in the local-state vector and in every message address — and
//! only then packed, so nothing below shares the block arithmetic it
//! checks.

use std::collections::{BTreeMap, BTreeSet};

use nbc_paxos::paxos_commit;
use nonblocking_commit::nbc_core::protocols::{central_2pc, central_3pc};
use nonblocking_commit::nbc_core::reach::{MsgAddr, Msgs};
use nonblocking_commit::nbc_core::{
    Analysis, GlobalState, Protocol, ReachGraph, ReachOptions, SiteId, StateCodec, StateId,
    Symmetry,
};
use nonblocking_commit::nbc_simnet::SimRng;

/// `state` with every site `s` renamed `to[s]`.
fn renamed(state: &GlobalState, to: &[u32]) -> GlobalState {
    let site = |s: SiteId| if s.is_client() { s } else { SiteId(to[s.index()]) };
    let mut locals = state.locals.clone();
    for (i, &l) in state.locals.iter().enumerate() {
        locals[to[i] as usize] = l;
    }
    let addrs = state.msgs.iter().flat_map(|(a, count)| {
        let image = MsgAddr { src: site(a.src), dst: site(a.dst), kind: a.kind };
        std::iter::repeat_n(image, usize::from(count))
    });
    GlobalState { locals, msgs: Msgs::from_addrs(addrs).unwrap() }
}

/// Every way to rename the members of each class among themselves, as
/// whole-protocol site maps.
fn group_elements(n_sites: usize, classes: &[Vec<u32>]) -> Vec<Vec<u32>> {
    fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let head = rest.remove(i);
            out.extend(permutations(&rest).into_iter().map(|mut p| {
                p.insert(0, head);
                p
            }));
        }
        out
    }
    let mut maps: Vec<Vec<u32>> = vec![(0..n_sites as u32).collect()];
    for class in classes {
        let images = permutations(class);
        maps = maps
            .iter()
            .flat_map(|map| {
                images.iter().map(move |image| {
                    let mut map = map.clone();
                    for (&from, &to) in class.iter().zip(image) {
                        map[from as usize] = to;
                    }
                    map
                })
            })
            .collect();
    }
    maps
}

struct Packed<'a> {
    codec: StateCodec,
    symmetry: &'a Symmetry,
    keys: Vec<u64>,
}

impl Packed<'_> {
    fn canon(&mut self, state: &GlobalState) -> Vec<u64> {
        let mut words = Vec::new();
        self.codec.encode_into(state, &mut words);
        self.symmetry.canonicalise(&mut words, &mut self.keys);
        words
    }
}

fn classes_of(symmetry: &Symmetry) -> Vec<Vec<u32>> {
    symmetry.classes().map(|c| c.iter().map(|s| s.0).collect()).collect()
}

#[test]
fn canonical_form_and_orbit_size_agree_with_brute_force_on_every_reachable_state() {
    let mut rng = SimRng::seed_from_u64(0x51_7e5);
    for p in [central_3pc(5), paxos_commit(2, 1)] {
        let codec = StateCodec::new(&p).unwrap();
        let symmetry = Symmetry::of(&p, &codec);
        let classes = classes_of(&symmetry);
        assert_eq!(classes.len(), 1, "{}", p.name);
        let group = group_elements(p.n_sites(), &classes);
        let mut packed = Packed { codec, symmetry: &symmetry, keys: Vec::new() };
        let graph = ReachGraph::build(&p).unwrap();
        let mut orbit_sum = 0u128;
        let mut representatives = BTreeSet::new();
        for state in graph.nodes() {
            let canon = packed.canon(state);
            // Idempotent, and a state of the same orbit.
            let decoded = packed.codec.decode(&canon);
            assert_eq!(packed.canon(&decoded), canon, "{}: canon twice", p.name);
            let images: BTreeSet<Vec<u64>> = group
                .iter()
                .map(|g| {
                    let mut words = Vec::new();
                    packed.codec.encode_into(&renamed(state, g), &mut words);
                    words
                })
                .collect();
            assert!(images.contains(&canon), "{}: the representative left the orbit", p.name);
            // The same for every member of the orbit: a random one here,
            // all of them through `representatives` below.
            let g = &group[rng.gen_range(0..group.len())];
            assert_eq!(packed.canon(&renamed(state, g)), canon, "{}: canon(g.s)", p.name);
            // The orbit is as large as it is said to be.
            let said = symmetry.orbit_size(&canon, &mut packed.keys);
            assert_eq!(said, images.len() as u128, "{}: orbit size", p.name);
            if representatives.insert(canon) {
                orbit_sum += said;
            }
        }
        assert_eq!(orbit_sum, graph.node_count() as u128, "{}: orbits partition", p.name);
        assert!(representatives.len() < graph.node_count(), "{}: nothing reduced", p.name);
    }
}

#[test]
fn paxos_commit_reduces_one_of_its_two_classes() {
    let p = paxos_commit(3, 1);
    let found = nonblocking_commit::nbc_core::symmetry::interchangeable_classes(&p);
    let sites = |v: &[u32]| v.iter().map(|&s| SiteId(s)).collect::<Vec<_>>();
    assert_eq!(found, [sites(&[1, 2]), sites(&[3, 4, 5])], "resource managers, acceptors");
    let codec = StateCodec::new(&p).unwrap();
    assert_eq!(classes_of(&Symmetry::of(&p, &codec)), [[3, 4, 5]], "the larger one");
}

/// The count DESIGN cites: sorting Paxos Commit's two classes each on its
/// own is not a canonical form. A vote channel lies in a resource
/// manager's block and in an acceptor's, so the second sort scrambles what
/// the first arranged; the "representatives" of the 1 239 reachable states
/// of `paxos_commit(3, 1)` then stand for more states than there are.
#[test]
fn reducing_both_paxos_classes_independently_miscounts() {
    let p = paxos_commit(3, 1);
    let graph = ReachGraph::build(&p).unwrap();
    assert_eq!(graph.node_count(), 1239);
    let orbit_sum = |symmetry: &Symmetry| {
        let mut packed = Packed { codec: StateCodec::new(&p).unwrap(), symmetry, keys: Vec::new() };
        let reps: BTreeSet<Vec<u64>> = graph.nodes().iter().map(|s| packed.canon(s)).collect();
        reps.iter().map(|r| symmetry.orbit_size(r, &mut packed.keys)).sum::<u128>()
    };
    let codec = StateCodec::new(&p).unwrap();
    assert_eq!(orbit_sum(&Symmetry::of(&p, &codec)), 1239);
    let both = Symmetry::reducing_every_class(&p, &codec);
    assert_eq!(classes_of(&both), [vec![1, 2], vec![3, 4, 5]]);
    assert_eq!(orbit_sum(&both), 1719, "the unsound reduction's count");
    // Nor is it a normal form: sorted again, some results move.
    let mut packed = Packed { codec, symmetry: &both, keys: Vec::new() };
    let restless = graph.nodes().iter().filter(|s| {
        let once = packed.canon(s);
        let decoded = packed.codec.decode(&once);
        packed.canon(&decoded) != once
    });
    assert_eq!(restless.count(), 118);
}

#[test]
fn a_chain_has_no_interchangeable_sites() {
    for file in ["linear-2pc.nbc", "linear-irrevocable.nbc"] {
        let path = format!("{}/specs/{file}", env!("CARGO_MANIFEST_DIR"));
        let p = nbc_spec::parse(&std::fs::read_to_string(&path).unwrap(), 3).unwrap();
        let codec = StateCodec::new(&p).unwrap();
        assert_eq!(classes_of(&Symmetry::of(&p, &codec)), Vec::<Vec<u32>>::new(), "{file}");
    }
    // The spec of central 3PC gets what its text has: the slaves.
    let path = format!("{}/specs/central-3pc.nbc", env!("CARGO_MANIFEST_DIR"));
    let p = nbc_spec::parse(&std::fs::read_to_string(&path).unwrap(), 5).unwrap();
    let codec = StateCodec::new(&p).unwrap();
    assert_eq!(classes_of(&Symmetry::of(&p, &codec)), [[1, 2, 3, 4]]);
}

/// A concurrency set with every slave named "a slave": `(is_slave, state)`
/// pairs. By symmetry every slave's reads the same.
fn by_role(a: &Analysis, site: SiteId, s: StateId) -> BTreeSet<(bool, StateId)> {
    a.concurrency_slots(site, s).map(|(j, t)| (j != SiteId(0), t)).collect()
}

/// The paper draws its concurrency sets once, "for any n". With the slaves
/// folded into one orbit the analysis reaches far enough to check it: from
/// three sites up, the concurrency set of every coordinator state and of
/// every slave state, by role, is the same set at every n.
#[test]
fn central_concurrency_sets_by_role_are_the_same_from_three_sites_to_sixteen() {
    let by_roles = |p: &Protocol| {
        let a = Analysis::build_with(p, ReachOptions::default().with_streaming(true)).unwrap();
        let mut sets = BTreeMap::new();
        for site in p.sites() {
            for s in (0..p.fsa(site).state_count()).map(|s| StateId(s as u32)) {
                assert!(a.occupied(site, s), "{}: {site} {s:?}", p.name);
                let set = by_role(&a, site, s);
                // Slave 1 speaks for the slaves; the others must agree.
                let role = site.0.min(1);
                assert_eq!(
                    *sets.entry((role, s)).or_insert_with(|| set.clone()),
                    set,
                    "{}",
                    p.name
                );
            }
        }
        sets
    };
    for build in [central_2pc, central_3pc] {
        let three = by_roles(&build(3));
        for n in 4..=16 {
            assert_eq!(by_roles(&build(n)), three, "{}", build(n).name);
        }
    }
}
