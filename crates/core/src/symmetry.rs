//! Site symmetry: which sites of a protocol are interchangeable, and the
//! canonical representative of a packed state under permuting them.
//!
//! The n−1 slaves of a central-site protocol run the same automaton and
//! talk only to the coordinator, so a global state with slave 2 in `w` and
//! slave 3 in `a` and the state with the two swapped are the same state
//! up to naming: same depth in the reachable graph, same out-degree, same
//! classification, and facts that differ by the same renaming. The
//! streaming fold ([`crate::reach`]) therefore walks one representative of
//! each such orbit and weighs what it counts by the orbit's size.
//!
//! ## Finding the group
//!
//! Nothing is assumed from a protocol's name or paradigm. Two sites are
//! *interchangeable* iff the transposition that swaps them maps the
//! protocol onto itself: every site's automaton onto the image site's —
//! state for state by id, with equal classes and initial state, and the
//! transitions equal as a multiset once every trigger's source list and
//! every emission list is renamed and compared as a multiset (with the
//! quorum size, the vote and the end states) — the initial messages onto
//! themselves, and an acceptor only onto an acceptor. Transpositions
//! suffice: if `(a b)` and `(b c)` are automorphisms so is `(a c) =
//! (a b)(b c)(a b)`, so interchangeability is an equivalence, and the
//! transpositions within a class generate every permutation of it.
//!
//! ## Which classes are reduced
//!
//! A member's *block* is its local-state field plus the count fields of
//! the channels it sends or receives on. Permuting a class permutes whole
//! blocks — and nothing else — exactly when every channel of every member
//! ends at a site no reduced class moves: then the state is a fixed part
//! plus a tuple of blocks, and the tuple sorted is a canonical form. A
//! class whose members talk to each other (decentralized peers), or to a
//! class already accepted, is left alone: Paxos Commit's resource managers
//! and acceptors are both classes, but a vote channel belongs to one block
//! of each, and sorting the two tuples independently is not a canonical
//! form of the product action: the second sort rewrites fields the first
//! one ordered by (`tests/site_symmetry.rs` keeps the count that refutes
//! it). Classes are taken largest first.
//!
//! ## Canonical form and orbit size
//!
//! A block is packed into one `u64` key, the same bit layout for every
//! member (a class whose block is wider is left alone). The representative
//! is the state with its keys in ascending member order; the orbit's size
//! is the number of distinct arrangements of the keys, the multinomial
//! `m! / ∏ run!` over runs of equal keys.

use crate::codec::{Field, StateCodec};
use crate::fsa::{Consume, Fsa, StateClass, Transition, Vote};
use crate::ids::{MsgKind, SiteId};
use crate::protocol::Protocol;
use crate::reach::StateFolder;

/// A site a transition reads from or writes to, with the message kind.
type Peer = (SiteId, MsgKind);

/// One transition as a value: peers renamed, lists sorted.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Shape {
    from: u32,
    to: u32,
    vote: u8,
    /// Which trigger, and a quorum's size.
    trigger: (u8, u32),
    reads: Vec<Peer>,
    emits: Vec<Peer>,
}

fn listed(consume: &Consume) -> &[Peer] {
    match consume {
        Consume::Spontaneous => &[],
        Consume::All(v) | Consume::Any(v) | Consume::Quorum { srcs: v, .. } => v,
    }
}

fn shape(t: &Transition, rename: impl Fn(SiteId) -> SiteId) -> Shape {
    let trigger = match &t.consume {
        Consume::Spontaneous => (0, 0),
        Consume::All(_) => (1, 0),
        Consume::Any(_) => (2, 0),
        Consume::Quorum { k, .. } => (3, *k),
    };
    let mut reads: Vec<Peer> = listed(&t.consume).iter().map(|&(s, k)| (rename(s), k)).collect();
    let mut emits: Vec<Peer> = t.emit.iter().map(|e| (rename(e.dst), e.kind)).collect();
    reads.sort_unstable();
    emits.sort_unstable();
    let vote = match t.vote {
        None => 0,
        Some(Vote::Yes) => 1,
        Some(Vote::No) => 2,
    };
    Shape { from: t.from.0, to: t.to.0, vote, trigger, reads, emits }
}

/// Does swapping sites `a` and `b` map `protocol` onto itself?
fn is_automorphism(protocol: &Protocol, a: SiteId, b: SiteId) -> bool {
    let (fa, fb) = (protocol.fsa(a), protocol.fsa(b));
    fn classes(f: &Fsa) -> impl Iterator<Item = StateClass> + '_ {
        f.states().iter().map(|s| s.class)
    }
    if protocol.is_acceptor(a.index()) != protocol.is_acceptor(b.index())
        || fa.initial() != fb.initial()
        || !classes(fa).eq(classes(fb))
    {
        return false;
    }
    let swap = |s: SiteId| match s {
        s if s == a => b,
        s if s == b => a,
        s => s,
    };
    let tape = |rename: &dyn Fn(SiteId) -> SiteId| {
        let mut msgs: Vec<(SiteId, SiteId, MsgKind)> = protocol
            .initial_msgs()
            .iter()
            .map(|m| (rename(m.src), rename(m.dst), m.kind))
            .collect();
        msgs.sort_unstable();
        msgs
    };
    if tape(&swap) != tape(&|s| s) {
        return false;
    }
    protocol.sites().all(|k| {
        // A transition of a third site that names neither `a` nor `b` is
        // its own image, and no renamed transition can equal it.
        let moved = |t: &&Transition| {
            k == a
                || k == b
                || listed(&t.consume).iter().any(|&(s, _)| s == a || s == b)
                || t.emit.iter().any(|e| e.dst == a || e.dst == b)
        };
        let mut renamed: Vec<Shape> =
            protocol.fsa(k).transitions().iter().filter(moved).map(|t| shape(t, swap)).collect();
        let mut image: Vec<Shape> = protocol
            .fsa(swap(k))
            .transitions()
            .iter()
            .filter(moved)
            .map(|t| shape(t, |s| s))
            .collect();
        renamed.sort_unstable();
        image.sort_unstable();
        renamed == image
    })
}

/// The classes of interchangeable sites with more than one member, each
/// ascending, in order of their first member.
pub fn interchangeable_classes(protocol: &Protocol) -> Vec<Vec<SiteId>> {
    let mut classes: Vec<Vec<SiteId>> = Vec::new();
    for site in protocol.sites() {
        match classes.iter_mut().find(|c| is_automorphism(protocol, c[0], site)) {
            Some(class) => class.push(site),
            None => classes.push(vec![site]),
        }
    }
    classes.retain(|c| c.len() > 1);
    classes
}

/// One reduced class: its members and where each one's block lies.
#[derive(Debug)]
struct Class {
    /// The member sites, ascending.
    sites: Vec<SiteId>,
    /// `blocks[m]` = member `m`'s block as fields of the packed state,
    /// each with the shift that places it in the key.
    blocks: Vec<Vec<(Field, u32)>>,
}

impl Class {
    /// The class over `sites`, unless a member's block does not fit a key
    /// or the members' blocks are not laid out alike. `fixed` says whether
    /// the far end of a channel stays put; with `None` nobody asks.
    fn new(
        codec: &StateCodec,
        sites: &[SiteId],
        fixed: Option<&dyn Fn(SiteId) -> bool>,
    ) -> Option<Self> {
        // A channel's role in its member's block: direction, far end, kind.
        type Role = (bool, SiteId, MsgKind);
        let mut layout: Option<Vec<(Role, u32)>> = None;
        let mut blocks = Vec::with_capacity(sites.len());
        for &site in sites {
            let mut channels: Vec<(Role, Field)> = Vec::new();
            for (addr, field) in codec.channels() {
                let far = match (addr.src == site, addr.dst == site) {
                    (false, false) => continue,
                    (true, false) => addr.dst,
                    (false, true) => addr.src,
                    (true, true) => return None,
                };
                if !far.is_client() && fixed.is_some_and(|fixed| !fixed(far)) {
                    return None;
                }
                channels.push(((addr.src == site, far, addr.kind), field));
            }
            channels.sort_unstable_by_key(|&(role, _)| role);
            let roles: Vec<(Role, u32)> = channels.iter().map(|&(r, f)| (r, f.bits())).collect();
            if *layout.get_or_insert_with(|| roles.clone()) != roles {
                return None;
            }

            // Lay the fields end to end in the key, reading neighbours in
            // the state as one field.
            let mut block: Vec<(Field, u32)> = Vec::new();
            let mut used = 0u32;
            let fields = std::iter::once(codec.local_field(site.index()))
                .chain(channels.iter().map(|&(_, field)| field))
                .filter(|f| f.bits() > 0);
            for field in fields {
                match block.last_mut().and_then(|(last, _)| Some((last.join(field)?, last))) {
                    Some((joined, last)) => *last = joined,
                    None => block.push((field, used)),
                }
                used += field.bits();
            }
            if used > u64::BITS {
                return None;
            }
            blocks.push(block);
        }
        Some(Self { sites: sites.to_vec(), blocks })
    }

    /// Every member's key, in member order.
    #[inline]
    fn read_keys(&self, state: &[u64], keys: &mut Vec<u64>) {
        keys.clear();
        keys.extend(
            self.blocks
                .iter()
                .map(|block| block.iter().fold(0, |key, &(f, shift)| key | f.get(state) << shift)),
        );
    }
}

/// The number of distinct arrangements of `keys` (ascending): `m! / ∏
/// run!` over runs of equal keys, built one key at a time so that every
/// intermediate value is itself such a count. `u128::MAX` once it no
/// longer fits.
fn arrangements(keys: &[u64]) -> u128 {
    fn gcd(a: u128, b: u128) -> u128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut ways = 1u128;
    let mut run = 0u128;
    for (i, &key) in keys.iter().enumerate() {
        run = if i > 0 && keys[i - 1] == key { run + 1 } else { 1 };
        // ways · (i + 1) / run, exactly: what is left of `run` once its
        // common factor with `i + 1` is gone divides `ways`.
        let placed = i as u128 + 1;
        let g = gcd(placed, run);
        match (ways / (run / g)).checked_mul(placed / g) {
            Some(w) => ways = w,
            None => return u128::MAX,
        }
    }
    ways
}

/// The site permutations the streaming fold walks a protocol's reachable
/// graph modulo: every permutation within each reduced class. The trivial
/// group — no class — makes every method the identity.
#[derive(Debug)]
pub struct Symmetry {
    classes: Vec<Class>,
}

impl Symmetry {
    /// Find `protocol`'s interchangeable sites and reduce the classes the
    /// module docs' rule admits, against the layout `codec` (the
    /// protocol's own). The protocol need not have been validated.
    pub fn of(protocol: &Protocol, codec: &StateCodec) -> Self {
        let mut found = interchangeable_classes(protocol);
        found.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut classes: Vec<Class> = Vec::new();
        for sites in &found {
            let fixed = |far: SiteId| {
                !sites.contains(&far) && classes.iter().all(|c| !c.sites.contains(&far))
            };
            if let Some(class) = Class::new(codec, sites, Some(&fixed)) {
                classes.push(class);
            }
        }
        Self { classes }
    }

    /// Every interchangeable class sorted on its own, whether or not its
    /// members' channels end at fixed sites. **Not a symmetry reduction**
    /// when two classes talk to each other: it exists so that the test
    /// which shows why [`Symmetry::of`] applies its rule can build the
    /// thing it refutes.
    #[doc(hidden)]
    pub fn reducing_every_class(protocol: &Protocol, codec: &StateCodec) -> Self {
        let classes = interchangeable_classes(protocol)
            .iter()
            .filter_map(|sites| Class::new(codec, sites, None))
            .collect();
        Self { classes }
    }

    /// The reduced classes, each ascending.
    pub fn classes(&self) -> impl Iterator<Item = &[SiteId]> {
        self.classes.iter().map(|c| c.sites.as_slice())
    }

    /// Rewrite the packed `state` to the representative of its orbit:
    /// within each class, the members' blocks in ascending key order.
    /// `keys` is scratch.
    #[inline]
    pub fn canonicalise(&self, state: &mut [u64], keys: &mut Vec<u64>) {
        for class in &self.classes {
            class.read_keys(state, keys);
            if keys.windows(2).all(|w| w[0] <= w[1]) {
                continue;
            }
            keys.sort_unstable();
            for (block, &key) in class.blocks.iter().zip(keys.iter()) {
                for &(field, shift) in block {
                    field.set(state, key >> shift & field.max());
                }
            }
        }
    }

    /// How many states the orbit of `state` holds — the same for every
    /// state of an orbit; `u128::MAX` if more than that. `keys` is scratch.
    pub fn orbit_size(&self, state: &[u64], keys: &mut Vec<u64>) -> u128 {
        self.classes.iter().fold(1, |orbit: u128, class| {
            class.read_keys(state, keys);
            keys.sort_unstable();
            orbit.saturating_mul(arrangements(keys))
        })
    }

    /// Close what `folder` folded over representatives under the group:
    /// OR in its image under the transposition of adjacent members until
    /// nothing grows. Adjacent transpositions generate every permutation
    /// of a class, and the image of a fact of a state is the fact of the
    /// image state, so the fixpoint is what folding every state of every
    /// orbit would have set.
    pub(crate) fn close<F: StateFolder>(&self, folder: &mut F) {
        for class in &self.classes {
            loop {
                let mut grew = false;
                for pair in class.sites.windows(2) {
                    grew |= folder.close_under_swap(pair[0], pair[1]);
                }
                if !grew {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::FsaBuilder;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    fn reduced(p: &Protocol) -> Vec<Vec<u32>> {
        let codec = StateCodec::new(p).unwrap();
        Symmetry::of(p, &codec).classes().map(|c| c.iter().map(|s| s.0).collect()).collect()
    }

    #[test]
    fn the_slaves_of_a_central_protocol_are_one_reduced_class() {
        for n in 3..=8u32 {
            for p in [central_2pc(n as usize), central_3pc(n as usize)] {
                assert_eq!(reduced(&p), [(1..n).collect::<Vec<u32>>()], "{}", p.name);
            }
        }
        // One slave is nobody's peer.
        assert_eq!(reduced(&central_3pc(2)), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn peers_that_talk_to_each_other_are_interchangeable_but_not_reduced() {
        for p in [decentralized_2pc(4), decentralized_3pc(4)] {
            let all: Vec<SiteId> = p.sites().collect();
            assert_eq!(interchangeable_classes(&p), [all], "{}", p.name);
            assert_eq!(reduced(&p), Vec::<Vec<u32>>::new(), "{}", p.name);
        }
    }

    #[test]
    fn a_block_wider_than_a_key_leaves_its_class_alone() {
        // Two readers of a looping sender: each block holds four 16-bit
        // counts and a local state.
        let mut sender = FsaBuilder::new("sender");
        let q = sender.state("q", StateClass::Initial);
        let kinds = [MsgKind::YES, MsgKind::NO, MsgKind::ACK, MsgKind::XACT];
        let to_both =
            kinds.iter().flat_map(|&k| [1, 2].map(|s| crate::fsa::Envelope::new(SiteId(s), k)));
        sender.transition(q, q, Consume::Spontaneous, to_both.collect(), None, "/ everything");
        let reader = || {
            let mut b = FsaBuilder::new("reader");
            let q = b.state("q", StateClass::Initial);
            let c = b.state("c", StateClass::Committed);
            b.transition(q, c, Consume::one(SiteId(0), MsgKind::YES), vec![], None, "yes /");
            b.build()
        };
        let fsas = vec![sender.build(), reader(), reader()];
        let p = Protocol::new("wide blocks", crate::protocol::Paradigm::Custom, fsas, vec![]);
        assert_eq!(interchangeable_classes(&p), [[SiteId(1), SiteId(2)]]);
        assert_eq!(reduced(&p), Vec::<Vec<u32>>::new(), "4 x 16 + 1 bits");
    }

    #[test]
    fn arrangements_are_multinomials_and_saturate() {
        assert_eq!(arrangements(&[]), 1);
        assert_eq!(arrangements(&[7, 7, 7, 7]), 1);
        assert_eq!(arrangements(&[1, 2, 3, 4]), 24);
        assert_eq!(arrangements(&[1, 1, 2, 2, 2, 9]), 60, "6! / (2! 3! 1!)");
        // 34! fits, 35! does not; equal keys bring 63 sites back in range.
        let distinct: Vec<u64> = (0..35).collect();
        assert_eq!(arrangements(&distinct[..34]), (1..=34u128).product::<u128>());
        assert_eq!(arrangements(&distinct), u128::MAX);
        let mut two_kinds = vec![0u64; 32];
        two_kinds.extend([1; 31]);
        assert_eq!(arrangements(&two_kinds), 916_312_070_471_295_267, "63 choose 31");
    }
}
