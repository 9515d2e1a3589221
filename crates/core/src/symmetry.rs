//! Site symmetry: which sites of a protocol are interchangeable, and the
//! canonical representative of a packed state under permuting them.
//!
//! The n−1 slaves of a central-site protocol run the same automaton and
//! talk only to the coordinator, so a global state with slave 2 in `w` and
//! slave 3 in `a` and the state with the two swapped are the same state
//! up to naming: same depth in the reachable graph, same out-degree, same
//! classification, and facts that differ by the same renaming. So are the
//! peers of a decentralized protocol, which talk to each other. The
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
//! Classes are taken largest first. A class is reduced when every channel
//! of every member ends at a member, at the client, or at a *fixed* site,
//! one no class taken so far moves, and its fields fit the keys below. A
//! class with a channel into a class already taken is left alone: Paxos
//! Commit's resource managers and acceptors are both classes, but a vote
//! channel runs from a member of one to a member of the other, so the two
//! permutations act on it at once, and reducing each class on its own is
//! not a canonical form of the product action (`tests/site_symmetry.rs`
//! keeps the count that refutes it: 1 719 "states" for 1 239).
//!
//! A member's *block* is its local-state field and the count fields of
//! its channels to fixed sites and to itself, packed into one `u64` key
//! laid out alike for every member. The class's *links* are the channels
//! between members: those from member `i` to member `j` pack into one key
//! per ordered pair, again laid out alike. Permuting the class permutes
//! the blocks, permutes the link matrix's rows and columns together, and
//! moves nothing else.
//!
//! ## Blocks alone: sorting
//!
//! When no member messages another (central slaves, Paxos acceptors), the
//! state is a fixed part plus a tuple of blocks, so the tuple sorted is a
//! canonical form, and the orbit's size is the number of distinct
//! arrangements of the keys: the multinomial `m! / ∏ run!` over runs of
//! equal keys.
//!
//! ## Peers: individualisation and refinement
//!
//! With links, the class at a state is a directed graph, a vertex per
//! member coloured by its block key and an arc per ordered pair coloured by
//! its link key, and a canonical form is a canonical labelling of it:
//! individualisation-refinement (McKay and Piperno, "Practical graph
//! isomorphism, II", 2014) in the symmetry-reduction setting of Ip and
//! Dill (1996).
//!
//! 1. *Refine.* Order the members into cells by block key, then split each
//!    cell by every member's multiset of (cell, arc out, arc in) over the
//!    other members, the parts in signature order, until no cell splits.
//!    Each step reads colours and cell positions only, so refining a
//!    relabelled graph yields the relabelled partition.
//! 2. *Individualise.* While some cell of non-twins is left, take the first
//!    such cell and, for each member in turn, make it a cell of its own
//!    ahead of the rest, refine and recurse. A leaf places every member;
//!    the representative is the leaf whose arc matrix, read row by row, is
//!    least. Relabelling the graph relabels the whole tree, so the least
//!    leaf is the same graph for every state of the orbit.
//! 3. *Prune.* Two members are twins when swapping them is an
//!    automorphism. A cell of twins can stay in any order (every order is
//!    the same graph), and the search explores one member per twin class.
//!    Two leaves with the same graph give an automorphism, and a member the
//!    automorphisms found so far map onto an explored one is not explored:
//!    its subtree is the image of an explored subtree.
//!
//! The orbit's size is `m! / |Aut|`, and the search yields |Aut| by
//! orbit and stabiliser. At a node, the members of the tied cell whose
//! subtrees reach the least graph are the best child's orbit under the
//! node's automorphisms (twins and found automorphisms join them, and no
//! other member reaches it); |Aut| of the node is their number times |Aut|
//! of the best child. Where only twin cells are left it is the product of
//! the cells' factorials. Every factor is at most 64, so |Aut| is kept as
//! prime exponents and the orbit's size is exact wherever it fits a `u128`.
//!
//! ## Why the counts are exact
//!
//! An automorphism fixes the initial state, so BFS depth and out-degree
//! are the same on an orbit: a level's frontier, new states and total are
//! sums of orbit sizes, its successor occurrences are `Σ orbit(s) ·
//! outdeg(s)`, and every progress line, the state count and the depth are
//! the retained build's. A sum past `u128` saturates, never wraps.
//!
//! ## Facts from the quotient: the closure
//!
//! What a folder reads of `π·s` is the `π`-image of what it reads of `s`.
//! After the last level `Symmetry::close` ORs in the image under each
//! transposition of adjacent members of a class, to a fixpoint
//! (`StateFolder::close_under_swap`, in place over the two sites' slot
//! ranges). Adjacent transpositions generate the group and bits only
//! grow, so the result is closed under every permutation: the analysis
//! reads exactly the bits folding every state would have set. A folder
//! that counts instead weighs each representative by its orbit.

use std::cmp::Ordering;
use std::ops::Range;

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

/// Fields of the packed state laid end to end in one `u64`, each with the
/// shift that places it there.
type Key = Vec<(Field, u32)>;

/// `fields` as one key, neighbours in the state read as one field; `None`
/// if they do not fit in 64 bits.
fn key_of(fields: impl Iterator<Item = Field>) -> Option<Key> {
    let mut key: Key = Vec::new();
    let mut used = 0u32;
    for field in fields.filter(|f| f.bits() > 0) {
        match key.last_mut().and_then(|(last, _)| Some((last.join(field)?, last))) {
            Some((joined, last)) => *last = joined,
            None => key.push((field, used)),
        }
        used += field.bits();
    }
    (used <= u64::BITS).then_some(key)
}

#[inline]
fn read_key(key: &Key, state: &[u64]) -> u64 {
    key.iter().fold(0, |value, &(f, shift)| value | f.get(state) << shift)
}

#[inline]
fn write_key(key: &Key, state: &mut [u64], value: u64) {
    for &(field, shift) in key {
        field.set(state, value >> shift & field.max());
    }
}

/// One reduced class: its members and where their fields lie.
#[derive(Debug)]
struct Class {
    /// The member sites, ascending.
    sites: Vec<SiteId>,
    /// `blocks[i]` = member `i`'s local state and its channels to fixed
    /// sites, the same layout for every member.
    blocks: Vec<Key>,
    /// `links[i * m + j]` = the channels from member `i` to member `j`
    /// (empty on the diagonal), the same layout for every pair. Empty when
    /// no member messages another: the class is then reduced by sorting
    /// its blocks.
    links: Vec<Key>,
}

impl Class {
    /// The class over `sites`, unless it has more than [`MAX_MEMBERS`]
    /// members, a key would be wider than 64 bits, or the members' blocks
    /// or links are not laid out alike. `fixed` says whether a far end
    /// outside the class stays put; with `None` nobody asks.
    fn new(
        codec: &StateCodec,
        sites: &[SiteId],
        fixed: Option<&dyn Fn(SiteId) -> bool>,
    ) -> Option<Self> {
        // A channel's role in its member's block: direction, far end (none
        // for a loop), kind.
        type Role = (bool, Option<SiteId>, MsgKind);
        let m = sites.len();
        if m > MAX_MEMBERS {
            return None;
        }
        let member = |s: SiteId| sites.iter().position(|&x| x == s);
        let mut layout: Option<Vec<(Role, u32)>> = None;
        let mut blocks = Vec::with_capacity(m);
        let mut links: Vec<Vec<(MsgKind, Field)>> = Vec::new();
        for (i, &site) in sites.iter().enumerate() {
            let mut channels: Vec<(Role, Field)> = Vec::new();
            for (addr, field) in codec.channels() {
                let far = match (addr.src == site, addr.dst == site) {
                    (false, false) => continue,
                    (true, false) => addr.dst,
                    (false, true) => addr.src,
                    // A loop moves with its member: it is part of the block.
                    (true, true) => {
                        channels.push(((true, None, addr.kind), field));
                        continue;
                    }
                };
                if let Some(j) = member(far) {
                    // A link, filed once: by its sender.
                    if addr.src == site {
                        links.resize_with(m * m, Vec::new);
                        links[i * m + j].push((addr.kind, field));
                    }
                    continue;
                }
                if !far.is_client() && fixed.is_some_and(|fixed| !fixed(far)) {
                    return None;
                }
                channels.push(((addr.src == site, Some(far), addr.kind), field));
            }
            channels.sort_unstable_by_key(|&(role, _)| role);
            let roles: Vec<(Role, u32)> = channels.iter().map(|&(r, f)| (r, f.bits())).collect();
            if *layout.get_or_insert_with(|| roles.clone()) != roles {
                return None;
            }
            let local = std::iter::once(codec.local_field(site.index()));
            blocks.push(key_of(local.chain(channels.iter().map(|&(_, field)| field)))?);
        }
        // The address order lists one pair's kinds ascending.
        let pair = |k: usize| links[k].iter().map(|&(kind, f)| (kind, f.bits()));
        if !links.is_empty() && (0..m * m).any(|k| k / m != k % m && !pair(k).eq(pair(1))) {
            return None;
        }
        let links: Option<Vec<Key>> =
            links.iter().map(|pair| key_of(pair.iter().map(|&(_, f)| f))).collect();
        Some(Self { sites: sites.to_vec(), blocks, links: links? })
    }

    /// Every member's block key in member order, then for a class of peers
    /// every link key, row by row.
    #[inline]
    fn read_keys(&self, state: &[u64], keys: &mut Vec<u64>) {
        keys.clear();
        keys.extend(self.blocks.iter().chain(&self.links).map(|key| read_key(key, state)));
    }

    /// The canonical order of a class of peers at the state `keys` were
    /// read from, and the size of the state's automorphism group.
    fn label(&self, keys: &[u64]) -> (Order, Factors) {
        let m = self.sites.len();
        let (node, link) = keys.split_at(m);
        Peers::new(m, node, link).label()
    }
}

/// The number of distinct arrangements of `keys` (ascending): `m! / ∏
/// run!` over runs of equal keys; `u128::MAX` once it does not fit.
fn arrangements(keys: &[u64]) -> u128 {
    let runs = keys.chunk_by(|a, b| a == b);
    let fixing = runs.fold(Factors::default(), |aut, run| aut.times_factorial(run.len()));
    fixing.dividing_factorial(keys.len())
}

/// The primes up to 64: every factor of a group order found here is at
/// most the class's size.
const PRIMES: [u8; 18] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61];

/// A product of factors no greater than 64, as exponents of [`PRIMES`]:
/// exact where the product itself would not fit (|Aut| ≤ 64!).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Factors([u8; PRIMES.len()]);

impl Factors {
    fn times(mut self, mut k: usize) -> Self {
        for (e, &p) in self.0.iter_mut().zip(&PRIMES) {
            while k.is_multiple_of(usize::from(p)) {
                k /= usize::from(p);
                *e += 1;
            }
        }
        debug_assert_eq!(k, 1, "a factor above 64");
        self
    }

    /// `self · k!`, by Legendre: `k!` holds `p` to the power `Σ ⌊k / pⁱ⌋`.
    fn times_factorial(mut self, k: usize) -> Self {
        for (e, &p) in self.0.iter_mut().zip(&PRIMES) {
            let mut power = usize::from(p);
            while power <= k {
                *e += (k / power) as u8;
                power *= usize::from(p);
            }
        }
        self
    }

    /// `m! / self`, which must be whole; `u128::MAX` once it does not fit.
    fn dividing_factorial(self, m: usize) -> u128 {
        let whole = Self::default().times_factorial(m);
        let mut out = 1u128;
        for ((&p, &e), &d) in PRIMES.iter().zip(&whole.0).zip(&self.0) {
            for _ in d..e {
                match out.checked_mul(u128::from(p)) {
                    Some(x) => out = x,
                    None => return u128::MAX,
                }
            }
        }
        out
    }
}

/// Most members a reduced class may have: a set of them is one `u64`, and
/// every factor of a group order is at most 64.
const MAX_MEMBERS: usize = u64::BITS as usize;

/// An arrangement of a class of peers: `order[p]` is the member placed at
/// position `p`.
type Order = [u8; MAX_MEMBERS];

/// An ordered partition of the members: `order` lists them cell by cell,
/// and `cell[i]` is the position at which member `i`'s cell starts.
#[derive(Clone, Copy)]
struct Partition {
    order: Order,
    cell: Order,
}

impl Partition {
    /// The position past the cell that starts at `start`.
    fn end(&self, start: usize, m: usize) -> usize {
        (start + 1..m)
            .find(|&q| usize::from(self.cell[usize::from(self.order[q])]) != start)
            .unwrap_or(m)
    }

    /// The cells as position ranges, in order.
    fn cells(&self, m: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut start = 0;
        std::iter::from_fn(move || {
            (start < m).then(|| {
                let cell = start..self.end(start, m);
                start = cell.end;
                cell
            })
        })
    }
}

/// A 64-bit scramble (splitmix64's finaliser).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ x >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ x >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ x >> 31
}

/// A class of peers at one state, as a coloured directed graph: a vertex
/// per member coloured by its block key, an arc per ordered pair coloured
/// by its link key. Its canonical labelling is individualisation and
/// refinement (module docs).
struct Peers<'a> {
    m: usize,
    node: &'a [u64],
    link: &'a [u64],
    /// `twin[i]`: the first member found of `i`'s twin class — the members
    /// whose transposition with `i` is an automorphism.
    twin: Order,
}

impl<'a> Peers<'a> {
    fn new(m: usize, node: &'a [u64], link: &'a [u64]) -> Self {
        let mut twin = [0; MAX_MEMBERS];
        for (i, t) in twin.iter_mut().enumerate().take(m) {
            *t = i as u8;
        }
        Self { m, node, link, twin }
    }

    #[inline]
    fn arc(&self, i: u8, j: u8) -> u64 {
        self.link[usize::from(i) * self.m + usize::from(j)]
    }

    /// The canonical order and |Aut|.
    fn label(mut self) -> (Order, Factors) {
        let mut part = Partition { order: self.twin, cell: [0; MAX_MEMBERS] };
        let members = &mut part.order[..self.m];
        members.sort_by_key(|&i| self.node[usize::from(i)]);
        for q in 0..self.m {
            let (i, prev) = (members[q], members[q.saturating_sub(1)]);
            part.cell[usize::from(i)] =
                if q > 0 && self.node[usize::from(i)] == self.node[usize::from(prev)] {
                    part.cell[usize::from(prev)]
                } else {
                    q as u8
                };
        }
        self.refine(&mut part);
        self.find_twins(&part);
        self.search(&part, &mut Vec::new())
    }

    /// Split cells by each member's arcs to and from every cell, until no
    /// cell splits: the coarsest equitable refinement, up to collisions of
    /// the signature's hash, which can only leave a cell coarser. The
    /// cells that split are ordered by signature, so the result commutes
    /// with relabelling the members.
    fn refine(&self, part: &mut Partition) {
        let m = self.m;
        let mut sig = [0u64; MAX_MEMBERS];
        loop {
            for i in 0..m as u8 {
                sig[usize::from(i)] = (0..m as u8).filter(|&j| j != i).fold(0u64, |h, j| {
                    let arcs = mix(self.arc(i, j) ^ mix(self.arc(j, i)));
                    h.wrapping_add(mix(u64::from(part.cell[usize::from(j)]) ^ arcs))
                });
            }
            let mut split = false;
            let mut start = 0;
            while start < m {
                let end = part.end(start, m);
                let cell = &mut part.order[start..end];
                cell.sort_unstable_by_key(|&i| sig[usize::from(i)]);
                for q in 1..cell.len() {
                    let (i, prev) = (usize::from(cell[q]), usize::from(cell[q - 1]));
                    part.cell[i] =
                        if sig[i] == sig[prev] { part.cell[prev] } else { (start + q) as u8 };
                    split |= sig[i] != sig[prev];
                }
                start = end;
            }
            if !split {
                return;
            }
        }
    }

    /// Members `v` and `w` of one cell are twins iff swapping them maps
    /// every arc onto an arc of the same colour.
    fn twins(&self, v: u8, w: u8) -> bool {
        self.arc(v, w) == self.arc(w, v)
            && (0..self.m as u8).all(|x| {
                x == v
                    || x == w
                    || (self.arc(v, x) == self.arc(w, x) && self.arc(x, v) == self.arc(x, w))
            })
    }

    /// Group each cell of `part` into twin classes. Swapping twins fixes
    /// every cell, so a twin class stays inside one cell of every partition
    /// the search refines `part` to.
    fn find_twins(&mut self, part: &Partition) {
        for cell in part.cells(self.m).filter(|c| c.len() > 1) {
            for q in cell.clone() {
                let v = part.order[q];
                let first = part.order[cell.start..q]
                    .iter()
                    .find(|&&r| self.twin[usize::from(r)] == r && self.twins(r, v));
                self.twin[usize::from(v)] = first.copied().unwrap_or(v);
            }
        }
    }

    /// The arcs of two arrangements compared position by position.
    fn compare(&self, a: &Order, b: &Order) -> Ordering {
        let m = self.m;
        (0..m)
            .flat_map(|p| (0..m).map(move |q| (p, q)))
            .map(|(p, q)| self.arc(a[p], a[q]).cmp(&self.arc(b[p], b[q])))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The least arrangement below `part` (refined) and the order of the
    /// automorphism group that fixes `part`. Automorphisms found on the way
    /// — two arrangements with equal arcs — are pushed to `gens`.
    fn search(&self, part: &Partition, gens: &mut Vec<Order>) -> (Order, Factors) {
        let m = self.m;
        let tied = |c: &Range<usize>| {
            c.len() > 1
                && part.order[c.clone()].iter().any(|&i| {
                    self.twin[usize::from(i)] != self.twin[usize::from(part.order[c.start])]
                })
        };
        let Some(target) = part.cells(m).find(tied) else {
            // Every arrangement within the cells left is an automorphism.
            let aut = part.cells(m).fold(Factors::default(), |aut, c| aut.times_factorial(c.len()));
            return (part.order, aut);
        };
        let s = target.start;
        let cell = &part.order[target.clone()];
        // Orbits of the automorphisms known so far on the cell, as a
        // union-find forest; twins start out joined.
        let mut parent = self.twin;
        fn root(parent: &Order, mut v: u8) -> u8 {
            while parent[usize::from(v)] != v {
                v = parent[usize::from(v)];
            }
            v
        }
        let (mut explored, mut equal) = (0u64, 0u64);
        let mut best: Option<(Order, Factors)> = None;
        let mut joined = gens.len();
        for &v in cell {
            let r = root(&parent, v);
            if cell.iter().any(|&w| explored >> w & 1 == 1 && root(&parent, w) == r) {
                // An automorphism maps an explored child onto this one.
                continue;
            }
            let mut child = *part;
            let at = s + cell.iter().position(|&w| w == v).expect("v is a member of the cell");
            child.order.swap(s, at);
            for &w in &child.order[s + 1..target.end] {
                child.cell[usize::from(w)] = s as u8 + 1;
            }
            child.cell[usize::from(v)] = s as u8;
            self.refine(&mut child);
            let (leaf, aut) = self.search(&child, gens);
            explored |= 1 << v;
            match best.as_ref().map(|(b, _)| self.compare(&leaf, b)) {
                None | Some(Ordering::Less) => {
                    best = Some((leaf, aut));
                    equal = 1 << v;
                }
                Some(Ordering::Equal) => {
                    equal |= 1 << v;
                    let b = &best.as_ref().expect("compared with it").0;
                    let mut g = [0; MAX_MEMBERS];
                    for p in 0..m {
                        g[usize::from(b[p])] = leaf[p];
                    }
                    gens.push(g);
                }
                Some(Ordering::Greater) => {}
            }
            for g in &gens[joined..] {
                for &w in cell {
                    let (a, b) = (root(&parent, w), root(&parent, g[usize::from(w)]));
                    parent[usize::from(a.max(b))] = a.min(b);
                }
            }
            joined = gens.len();
        }
        // The best child's orbit: every member of the cell joined to one
        // whose subtree reached the best arrangement.
        let roots = cell
            .iter()
            .filter(|&&w| equal >> w & 1 == 1)
            .fold(0u64, |mask, &w| mask | 1 << root(&parent, w));
        let orbit = cell.iter().filter(|&&w| roots >> root(&parent, w) & 1 == 1).count();
        let (leaf, aut) = best.expect("a tied cell has a member");
        (leaf, aut.times(orbit))
    }
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
            let fixed = |far: SiteId| classes.iter().all(|c| !c.sites.contains(&far));
            if let Some(class) = Class::new(codec, sites, Some(&fixed)) {
                classes.push(class);
            }
        }
        Self { classes }
    }

    /// Every interchangeable class reduced on its own, whether or not its
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
    /// within each class of blocks, the blocks in ascending key order;
    /// within each class of peers, the members in canonical order. `keys`
    /// is scratch.
    #[inline]
    pub fn canonicalise(&self, state: &mut [u64], keys: &mut Vec<u64>) {
        for class in &self.classes {
            class.read_keys(state, keys);
            if class.links.is_empty() {
                if keys.windows(2).all(|w| w[0] <= w[1]) {
                    continue;
                }
                keys.sort_unstable();
                for (block, &key) in class.blocks.iter().zip(keys.iter()) {
                    write_key(block, state, key);
                }
                continue;
            }
            let m = class.sites.len();
            let (order, _) = class.label(keys);
            if order[..m].iter().enumerate().all(|(p, &i)| usize::from(i) == p) {
                continue;
            }
            let at = |p: usize| usize::from(order[p]);
            for (p, block) in class.blocks.iter().enumerate() {
                write_key(block, state, keys[at(p)]);
            }
            for (k, link) in class.links.iter().enumerate() {
                write_key(link, state, keys[m + at(k / m) * m + at(k % m)]);
            }
        }
    }

    /// How many states the orbit of `state` holds — the same for every
    /// state of an orbit; `u128::MAX` if more than that. `keys` is scratch.
    pub fn orbit_size(&self, state: &[u64], keys: &mut Vec<u64>) -> u128 {
        self.classes.iter().fold(1, |orbit: u128, class| {
            class.read_keys(state, keys);
            let arranged = if class.links.is_empty() {
                keys.sort_unstable();
                arrangements(keys)
            } else {
                class.label(keys).1.dividing_factorial(class.sites.len())
            };
            orbit.saturating_mul(arranged)
        })
    }

    /// Close what `folder` folded over representatives under the group:
    /// OR in its image under the transposition of adjacent members until
    /// nothing grows (module docs: the closure).
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
    fn peers_that_talk_to_each_other_are_one_reduced_class() {
        for p in [decentralized_2pc(4), decentralized_3pc(4)] {
            let all: Vec<SiteId> = p.sites().collect();
            assert_eq!(interchangeable_classes(&p), [all], "{}", p.name);
            assert_eq!(reduced(&p), [[0, 1, 2, 3]], "{}", p.name);
        }
    }

    /// The graph `keys` (m block keys, then m × m link keys) with member
    /// `order[p]` placed at position `p`.
    fn arranged(m: usize, keys: &[u64], order: &[u8]) -> Vec<u64> {
        let at = |p: usize| usize::from(order[p]);
        let mut out: Vec<u64> = (0..m).map(|p| keys[at(p)]).collect();
        out.extend((0..m * m).map(|k| keys[m + at(k / m) * m + at(k % m)]));
        out
    }

    fn label(m: usize, keys: &[u64]) -> (Order, Factors) {
        let (node, link) = keys.split_at(m);
        Peers::new(m, node, link).label()
    }

    fn permutations(m: usize) -> Vec<Vec<u8>> {
        (0..m as u8).fold(vec![vec![]], |perms, i| {
            let grown = perms.iter().flat_map(|p| {
                (0..=p.len()).map(move |at| {
                    let mut p = p.clone();
                    p.insert(at, i);
                    p
                })
            });
            grown.collect()
        })
    }

    /// Every relabelling of a small coloured digraph gets the same
    /// canonical graph and the same |Aut|, and |Aut| is the number of
    /// relabellings that fix the graph. Directed cycles and their unions
    /// tie cells that refinement cannot split and that hold no twins, so
    /// the search and its automorphism pruning run; the rest are sparse
    /// random graphs.
    #[test]
    fn peer_labelling_is_canonical_and_counts_automorphisms_by_brute_force() {
        let mut graphs: Vec<(usize, Vec<u64>)> = Vec::new();
        let graph = |m: usize, arcs: &[(usize, usize, u64)]| {
            let mut keys = vec![0u64; m + m * m];
            for &(i, j, colour) in arcs {
                keys[m + i * m + j] = colour;
            }
            (m, keys)
        };
        for m in 3..=6 {
            graphs.push(graph(m, &(0..m).map(|i| (i, (i + 1) % m, 1)).collect::<Vec<_>>()));
        }
        graphs.push(graph(6, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]));
        graphs.push(graph(6, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 2), (4, 5, 2), (5, 3, 2)]));
        graphs.push(graph(5, &[(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)]));
        let mut seed = 7u64;
        for round in 0..120 {
            let m = 2 + round % 5;
            let (_, mut keys) = graph(m, &[]);
            for (k, key) in keys.iter_mut().enumerate() {
                seed = mix(seed.wrapping_add(k as u64));
                let diagonal = k >= m && (k - m) / m == (k - m) % m;
                *key = match (k < m, diagonal) {
                    (true, _) => seed % 2,
                    (false, true) => 0,
                    (false, false) => (seed % 7).saturating_sub(4),
                };
            }
            graphs.push((m, keys));
        }
        for (m, keys) in &graphs {
            let (order, aut) = label(*m, keys);
            let canon = arranged(*m, keys, &order);
            let mut fixing = 0u128;
            for perm in permutations(*m) {
                let image = arranged(*m, keys, &perm);
                let (order, image_aut) = label(*m, &image);
                assert_eq!(arranged(*m, &image, &order), canon, "{keys:?} by {perm:?}");
                assert_eq!(image_aut, aut, "{keys:?} by {perm:?}");
                fixing += u128::from(image == *keys);
            }
            let orbit = (1..=*m as u128).product::<u128>() / fixing;
            assert_eq!(aut.dividing_factorial(*m), orbit, "{keys:?}");
        }
    }

    #[test]
    fn factors_divide_factorials_exactly_and_saturate() {
        let one = Factors::default();
        assert_eq!(one.dividing_factorial(0), 1);
        assert_eq!(one.times(3).times(2).dividing_factorial(4), 4);
        assert_eq!(one.times_factorial(64).dividing_factorial(64), 1);
        assert_eq!(one.dividing_factorial(34), (1..=34u128).product::<u128>());
        assert_eq!(one.dividing_factorial(35), u128::MAX);
        assert_eq!(one.times_factorial(30).dividing_factorial(64), u128::MAX, "64! / 30!");
        assert_eq!(one.times_factorial(60).dividing_factorial(64), 61 * 62 * 63 * 64);
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
