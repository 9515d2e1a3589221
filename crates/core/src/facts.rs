//! Packed bitset representation of the per-state analysis facts, and the
//! accumulator that folds them up one global state at a time.
//!
//! The concurrency set C(s) is the load-bearing object of the paper — both
//! conditions of the Fundamental Nonblocking Theorem and the
//! termination-protocol decision rule are queries over it. Representing it
//! as a `BTreeSet<(SiteId, StateId)>` per local state (the first
//! implementation) costs an allocation-heavy `O(nodes · n²)` traversal of
//! the finished graph. This module instead packs every fact into
//! fixed-width bitsets over *(site, state) slots*:
//!
//! * slots are numbered site-major (`slot(i, s) = offsets[i] + s`), so
//!   ascending bit order is exactly ascending `(SiteId, StateId)` order —
//!   the iteration order of the old `BTreeSet`s, which keeps theorem
//!   witnesses bit-for-bit identical;
//! * the concurrency set of a slot is one row of `words` 64-bit words;
//! * occupancy, noncommittability, and yes-votedness are one row each.
//!
//! Folding one global state — given as its site-local states, which is
//! all these facts depend on — is `O(n + n·words)` word operations with zero
//! allocations. Over a retained graph that is one serial pass in node-id
//! order. Over a stream, because every fact is a monotone bit (set-once),
//! the accumulator can be **split per worker and OR-merged at every BFS
//! level barrier**: OR is commutative, associative, and idempotent, so the
//! merged bits are identical for any thread count, any chunking, and any
//! merge order, and equal to the serial pass's.

use crate::fsa::{Fsa, Vote};
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;
use crate::reach::StateFolder;

/// Maps `(site, state)` pairs to a dense site-major slot numbering.
#[derive(Clone, Debug)]
pub(crate) struct SlotMap {
    /// `offsets[i]` = first slot of site `i`'s states.
    offsets: Vec<u32>,
    /// Total number of slots.
    total: u32,
}

impl SlotMap {
    /// Build the slot numbering for a protocol.
    pub(crate) fn new(protocol: &Protocol) -> Self {
        let mut offsets = Vec::with_capacity(protocol.n_sites());
        let mut total = 0u32;
        for f in protocol.fsas() {
            offsets.push(total);
            total += f.state_count() as u32;
        }
        Self { offsets, total }
    }

    /// The slot of local state `s` of site `site`.
    #[inline]
    pub(crate) fn slot(&self, site: SiteId, s: StateId) -> u32 {
        self.offsets[site.index()] + s.0
    }

    /// Invert a slot back to its `(site, state)` pair.
    #[inline]
    pub(crate) fn unslot(&self, slot: u32) -> (SiteId, StateId) {
        let i = self.offsets.partition_point(|&o| o <= slot) - 1;
        (SiteId(i as u32), StateId(slot - self.offsets[i]))
    }

    /// Total number of slots.
    pub(crate) fn total(&self) -> usize {
        self.total as usize
    }

    /// Bitset row width, in 64-bit words.
    pub(crate) fn words(&self) -> usize {
        (self.total as usize).div_ceil(64).max(1)
    }

    /// The slot range `[start, end)` owned by `site`.
    pub(crate) fn site_range(&self, site: SiteId) -> std::ops::Range<u32> {
        let i = site.index();
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.total);
        self.offsets[i]..end
    }
}

/// Set bit `i` of a packed row.
#[inline]
pub(crate) fn bit_set(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1u64 << (i % 64);
}

/// Test bit `i` of a packed row.
#[inline]
pub(crate) fn bit_get(bits: &[u64], i: u32) -> bool {
    bits[(i / 64) as usize] & (1u64 << (i % 64)) != 0
}

/// Clear bit `i` of a packed row.
#[inline]
pub(crate) fn bit_clear(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] &= !(1u64 << (i % 64));
}

/// `dst |= src`, word by word.
#[inline]
pub(crate) fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Do two rows share a set bit?
#[inline]
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// Index of the first bit set in both rows (the minimum common element).
#[inline]
pub(crate) fn first_common(a: &[u64], b: &[u64]) -> Option<u32> {
    for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
        let both = x & y;
        if both != 0 {
            return Some(w as u32 * 64 + both.trailing_zeros());
        }
    }
    None
}

/// Iterate the indices of all set bits in ascending order.
pub(crate) fn iter_ones(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros();
            rest &= rest - 1;
            Some(w as u32 * 64 + b)
        })
    })
}

/// The analysis accumulator: everything [`crate::Analysis`] needs, folded
/// one global state at a time.
///
/// Implements [`StateFolder`]: a retained graph folds its nodes into one
/// accumulator, and the streaming fold of `core::reach` hands each worker a
/// [`split`] of the main accumulator to fold the frontier chunk it expands
/// into, which the main thread [`absorb`]s back at the level barrier.
///
/// [`split`]: StateFolder::split
/// [`absorb`]: StateFolder::absorb
#[derive(Clone, Debug)]
pub(crate) struct ConcurrencyFacts {
    slots: SlotMap,
    words: usize,
    /// `yes_voted` bit per slot: every FSA path to the state casts a yes
    /// vote. Input to the fold (per-protocol, precomputed), not an
    /// accumulated fact.
    yes_voted: Vec<u64>,
    /// Row-major concurrency bits: `cs[slot * words ..][..words]` holds the
    /// slots co-occupied with `slot` in some folded global state. Includes
    /// the state's *own* site until [`crate::Analysis`] masks own-site
    /// ranges out at finish time.
    cs: Vec<u64>,
    /// Slot appears in some folded global state.
    occupied: Vec<u64>,
    /// Slot appears in a global state where not every site is yes-voted
    /// (the complement of the paper's committability).
    noncommittable: Vec<u64>,
    /// Scratch: the slot mask of the global state being folded.
    state_mask: Vec<u64>,
}

impl ConcurrencyFacts {
    /// Fresh, empty accumulator for a protocol.
    pub(crate) fn new(protocol: &Protocol) -> Self {
        let slots = SlotMap::new(protocol);
        let words = slots.words();
        let mut yes_voted = vec![0u64; words];
        for (i, fsa) in protocol.fsas().iter().enumerate() {
            for (s, yes) in yes_voted_states(fsa).into_iter().enumerate() {
                if yes {
                    bit_set(&mut yes_voted, slots.slot(SiteId(i as u32), StateId(s as u32)));
                }
            }
        }
        let total = slots.total();
        Self {
            words,
            yes_voted,
            cs: vec![0; total * words],
            occupied: vec![0; words],
            noncommittable: vec![0; words],
            state_mask: vec![0; words],
            slots,
        }
    }

    /// Consume the accumulator, returning its parts for
    /// [`crate::Analysis`]: `(slots, yes_voted, cs, occupied,
    /// noncommittable)`.
    pub(crate) fn into_parts(self) -> (SlotMap, Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
        (self.slots, self.yes_voted, self.cs, self.occupied, self.noncommittable)
    }
}

/// Set bits `i` and `j` of `row` to their OR; true if one of them was new.
#[inline]
fn join_bits(row: &mut [u64], i: u32, j: u32) -> bool {
    let (x, y) = (bit_get(row, i), bit_get(row, j));
    if x == y {
        return false;
    }
    bit_set(row, i);
    bit_set(row, j);
    true
}

impl StateFolder for ConcurrencyFacts {
    fn fold(&mut self, locals: &[StateId]) {
        self.state_mask.fill(0);
        let mut all_yes = true;
        for (i, &s) in locals.iter().enumerate() {
            let slot = self.slots.offsets[i] + s.0;
            bit_set(&mut self.state_mask, slot);
            all_yes &= bit_get(&self.yes_voted, slot);
        }
        let words = self.words;
        for (i, &s) in locals.iter().enumerate() {
            let slot = self.slots.offsets[i] + s.0;
            bit_set(&mut self.occupied, slot);
            if !all_yes {
                bit_set(&mut self.noncommittable, slot);
            }
            let row = &mut self.cs[slot as usize * words..(slot as usize + 1) * words];
            or_into(row, &self.state_mask);
        }
    }

    fn split(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            words: self.words,
            yes_voted: self.yes_voted.clone(),
            cs: vec![0; self.cs.len()],
            occupied: vec![0; self.words],
            noncommittable: vec![0; self.words],
            state_mask: vec![0; self.words],
        }
    }

    fn absorb(&mut self, other: Self) {
        or_into(&mut self.cs, &other.cs);
        or_into(&mut self.occupied, &other.occupied);
        or_into(&mut self.noncommittable, &other.noncommittable);
    }

    /// The transposition is an involution on slots — `(a, s) ↔ (b, s)` —
    /// and on the concurrency matrix's cells, row and column both mapped;
    /// a cell and its image end up holding the OR of the two. In place,
    /// over the two sites' slot ranges: nothing is allocated per row.
    fn close_under_swap(&mut self, a: SiteId, b: SiteId) -> bool {
        let (at_a, at_b) = (self.slots.site_range(a), self.slots.site_range(b));
        debug_assert_eq!(at_a.len(), at_b.len(), "interchangeable sites have as many states");
        let states = at_a.len() as u32;
        let (a0, b0, words) = (at_a.start, at_b.start, self.words);
        let mut grew = false;
        for s in 0..states {
            grew |= join_bits(&mut self.occupied, a0 + s, b0 + s);
            grew |= join_bits(&mut self.noncommittable, a0 + s, b0 + s);
        }
        // A row of neither site is its own image row: its cells under the
        // two sites' columns pair up within it.
        for slot in (0..self.slots.total).filter(|s| !at_a.contains(s) && !at_b.contains(s)) {
            let row = &mut self.cs[slot as usize * words..(slot as usize + 1) * words];
            for s in 0..states {
                grew |= join_bits(row, a0 + s, b0 + s);
            }
        }
        // Row `(a, s)` pairs with row `(b, s)`: cell by cell under the two
        // sites' columns (each with the other site's column), word by word
        // under every other column (each with the same column).
        self.state_mask.fill(0);
        for slot in at_a.clone().chain(at_b.clone()) {
            bit_set(&mut self.state_mask, slot);
        }
        let (lo, hi) = (a0.min(b0), a0.max(b0));
        for s in 0..states {
            let (head, tail) = self.cs.split_at_mut((hi + s) as usize * words);
            let row_lo = &mut head[(lo + s) as usize * words..(lo + s + 1) as usize * words];
            let row_hi = &mut tail[..words];
            for t in 0..states {
                for (i, j) in [(lo + t, hi + t), (hi + t, lo + t)] {
                    let (x, y) = (bit_get(row_lo, i), bit_get(row_hi, j));
                    if x != y {
                        bit_set(row_lo, i);
                        bit_set(row_hi, j);
                        grew = true;
                    }
                }
            }
            for ((x, y), &swapped) in row_lo.iter_mut().zip(row_hi.iter_mut()).zip(&self.state_mask)
            {
                let both = (*x | *y) & !swapped;
                grew |= both & !(*x & *y) != 0;
                *x |= both;
                *y |= both;
            }
        }
        grew
    }
}

/// Compute, for one FSA, which states are yes-voted: state `t` is yes-voted
/// iff `t` is unreachable from the initial state using only transitions
/// that do not cast a yes vote.
pub(crate) fn yes_voted_states(fsa: &Fsa) -> Vec<bool> {
    let mut yes_free_reachable = vec![false; fsa.state_count()];
    let mut stack = vec![fsa.initial()];
    yes_free_reachable[fsa.initial().index()] = true;
    while let Some(s) = stack.pop() {
        for (_, t) in fsa.outgoing(s) {
            if t.vote != Some(Vote::Yes) && !yes_free_reachable[t.to.index()] {
                yes_free_reachable[t.to.index()] = true;
                stack.push(t.to);
            }
        }
    }
    yes_free_reachable.iter().map(|&r| !r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::central_2pc;

    #[test]
    fn slot_map_roundtrips() {
        let p = central_2pc(3);
        let m = SlotMap::new(&p);
        for site in p.sites() {
            for s in 0..p.fsa(site).state_count() {
                let id = StateId(s as u32);
                let slot = m.slot(site, id);
                assert_eq!(m.unslot(slot), (site, id));
                assert!(m.site_range(site).contains(&slot));
            }
        }
        assert_eq!(m.total(), p.fsas().iter().map(Fsa::state_count).sum::<usize>());
    }

    #[test]
    fn slot_order_is_site_state_order() {
        // Ascending slots must be ascending (SiteId, StateId) pairs — the
        // old BTreeSet iteration order the theorem witnesses rely on.
        let p = central_2pc(3);
        let m = SlotMap::new(&p);
        let pairs: Vec<_> = (0..m.total() as u32).map(|b| m.unslot(b)).collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn bit_helpers() {
        let mut row = vec![0u64; 2];
        bit_set(&mut row, 3);
        bit_set(&mut row, 64);
        bit_set(&mut row, 127);
        assert!(bit_get(&row, 3) && bit_get(&row, 64) && bit_get(&row, 127));
        assert!(!bit_get(&row, 4));
        assert_eq!(iter_ones(&row).collect::<Vec<_>>(), vec![3, 64, 127]);
        let mut mask = vec![0u64; 2];
        bit_set(&mut mask, 64);
        assert!(intersects(&row, &mask));
        assert_eq!(first_common(&row, &mask), Some(64));
        bit_clear(&mut row, 64);
        assert!(!intersects(&row, &mask));
        assert_eq!(first_common(&row, &mask), None);
    }

    #[test]
    fn split_absorb_matches_straight_fold() {
        // OR-merge determinism in miniature: folding states through two
        // split accumulators and absorbing must equal one straight fold.
        let p = central_2pc(2);
        let g = crate::reach::ReachGraph::build(&p).unwrap();
        let mut straight = ConcurrencyFacts::new(&p);
        for id in 0..g.node_count() as crate::reach::NodeId {
            straight.fold(&g.node(id).locals);
        }
        let mut merged = ConcurrencyFacts::new(&p);
        let (mut a, mut b) = (merged.split(), merged.split());
        for id in 0..g.node_count() as crate::reach::NodeId {
            if id % 2 == 0 {
                a.fold(&g.node(id).locals)
            } else {
                b.fold(&g.node(id).locals)
            }
        }
        merged.absorb(b);
        merged.absorb(a);
        assert_eq!(straight.cs, merged.cs);
        assert_eq!(straight.occupied, merged.occupied);
        assert_eq!(straight.noncommittable, merged.noncommittable);
    }
}
