//! A compact bit-packed encoding of [`GlobalState`] for the streaming
//! reachability fold.
//!
//! A heap [`GlobalState`] costs two allocations per state (the locals box
//! and the `Msgs` vector) plus padding; at n≥10 the frontier alone holds
//! hundreds of thousands of them. [`StateCodec`] instead packs a state
//! into a shared `Vec<u64>` arena ([`PackedArena`]):
//!
//! * each site's local state in exactly `ceil(log2(state_count))` bits
//!   (0 bits for a single-state FSA);
//! * the message multiset against the protocol's **address universe** —
//!   the finite set of `(src, dst, kind)` triples any reachable state can
//!   hold, computed once from the initial messages plus every transition
//!   emission — as one presence bit per address, followed by a 16-bit
//!   count for each present address (counts are `u16` by the `Msgs`
//!   representation).
//!
//! Encoding is word-aligned per state so an arena slot is identified by a
//! word range; `decode(encode(s)) == s` structurally (round-trip tested
//! across the catalog), which is what lets the fold swap representations
//! without perturbing any deterministic output.

use std::collections::BTreeSet;

use crate::ids::StateId;
use crate::protocol::Protocol;
use crate::reach::{GlobalState, MsgAddr, Msgs};

/// Bits needed to store values `0..count`.
fn bits_for(count: usize) -> u32 {
    if count <= 1 {
        0
    } else {
        usize::BITS - (count - 1).leading_zeros()
    }
}

/// Append-only LSB-first bit writer over a `u64` vector.
struct BitWriter<'a> {
    out: &'a mut Vec<u64>,
    /// Bits used in the last word (0 means the next write opens one).
    used: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u64>) -> Self {
        Self { out, used: 64 }
    }

    fn write(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        debug_assert!(bits == 64 || value < (1u64 << bits));
        if bits == 0 {
            return;
        }
        if self.used == 64 {
            self.out.push(0);
            self.used = 0;
        }
        let avail = 64 - self.used;
        let last = self.out.last_mut().expect("bit writer has a word");
        *last |= value << self.used;
        if bits <= avail {
            self.used += bits;
        } else {
            self.out.push(value >> avail);
            self.used = bits - avail;
        }
    }
}

/// LSB-first bit reader over an encoded word slice.
struct BitReader<'a> {
    words: &'a [u64],
    word: usize,
    used: u32,
}

impl<'a> BitReader<'a> {
    fn new(words: &'a [u64]) -> Self {
        Self { words, word: 0, used: 0 }
    }

    fn read(&mut self, bits: u32) -> u64 {
        debug_assert!(bits <= 64);
        if bits == 0 {
            return 0;
        }
        let avail = 64 - self.used;
        let cur = self.words[self.word] >> self.used;
        if bits <= avail {
            self.used += bits;
            if self.used == 64 {
                self.word += 1;
                self.used = 0;
            }
            cur & mask(bits)
        } else {
            self.word += 1;
            let hi = self.words[self.word] & mask(bits - avail);
            self.used = bits - avail;
            cur | (hi << avail)
        }
    }
}

fn mask(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The per-protocol bit layout of a packed [`GlobalState`]. Build once,
/// use for every encode/decode of states of that protocol.
pub struct StateCodec {
    /// Bits per site's local state index.
    local_bits: Vec<u32>,
    /// The sorted address universe: every `MsgAddr` a reachable state of
    /// this protocol can possibly hold.
    addrs: Vec<MsgAddr>,
}

impl StateCodec {
    /// Compute the layout for `protocol`.
    pub fn new(protocol: &Protocol) -> Self {
        let local_bits = protocol.fsas().iter().map(|f| bits_for(f.state_count())).collect();
        let mut addrs: BTreeSet<MsgAddr> = protocol
            .initial_msgs()
            .iter()
            .map(|m| MsgAddr { src: m.src, dst: m.dst, kind: m.kind })
            .collect();
        for (i, fsa) in protocol.fsas().iter().enumerate() {
            let src = crate::ids::SiteId(i as u32);
            for s in 0..fsa.state_count() {
                for (_, t) in fsa.outgoing(StateId(s as u32)) {
                    for e in &t.emit {
                        addrs.insert(MsgAddr { src, dst: e.dst, kind: e.kind });
                    }
                }
            }
        }
        Self { local_bits, addrs: addrs.into_iter().collect() }
    }

    /// Size of the address universe (one presence bit each).
    pub fn universe_len(&self) -> usize {
        self.addrs.len()
    }

    /// Append the packed form of `state` to `out`, starting at a fresh
    /// word. Panics if `state` does not belong to this codec's protocol
    /// (wrong site count, out-of-range local state, or a message outside
    /// the address universe) — all impossible for states produced by the
    /// reachability expansion the codec was built for.
    pub fn encode_into(&self, state: &GlobalState, out: &mut Vec<u64>) {
        assert_eq!(state.locals.len(), self.local_bits.len(), "site count mismatch");
        let mut w = BitWriter::new(out);
        for (i, &st) in state.locals.iter().enumerate() {
            w.write(u64::from(st.0), self.local_bits[i]);
        }
        // Both sides are sorted, so one merge walk places every held
        // address; one the universe lacks is never passed and is left over.
        let mut held = state.msgs.iter().peekable();
        for &addr in &self.addrs {
            match held.next_if(|&(a, _)| a == addr) {
                Some((_, count)) => w.write(1 | u64::from(count) << 1, 17),
                None => w.write(0, 1),
            }
        }
        assert!(
            held.next().is_none(),
            "state holds a message outside the codec's address universe"
        );
    }

    /// Decode one state from its packed words.
    pub fn decode(&self, words: &[u64]) -> GlobalState {
        let locals = vec![StateId(0); self.local_bits.len()].into_boxed_slice();
        let mut state = GlobalState { locals, msgs: Msgs::new() };
        self.decode_into(words, &mut state);
        state
    }

    /// Decode one state from its packed words over `state` (any state of
    /// this codec's protocol), reusing its allocations.
    pub fn decode_into(&self, words: &[u64], state: &mut GlobalState) {
        assert_eq!(state.locals.len(), self.local_bits.len(), "site count mismatch");
        let mut r = BitReader::new(words);
        for (local, &bits) in state.locals.iter_mut().zip(&self.local_bits) {
            *local = StateId(r.read(bits) as u32);
        }
        let mut counts = std::mem::take(&mut state.msgs).into_sorted_counts();
        counts.clear();
        for &addr in &self.addrs {
            if r.read(1) == 1 {
                counts.push((addr, r.read(16) as u16));
            }
        }
        state.msgs = Msgs::from_sorted_counts(counts);
    }
}

/// A word arena of packed states: push with a codec, read back by index.
/// Each state occupies a word-aligned range, so the whole frontier of a
/// BFS level lives in two flat vectors instead of per-state allocations.
#[derive(Default)]
pub struct PackedArena {
    words: Vec<u64>,
    /// `ends[i]` = one-past-the-end word offset of state `i`.
    ends: Vec<u32>,
}

impl PackedArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of packed states.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no states are packed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Words currently held (the arena's memory footprint in `u64`s).
    pub fn words_used(&self) -> usize {
        self.words.len()
    }

    /// Pack `state` at the end of the arena.
    pub fn push(&mut self, codec: &StateCodec, state: &GlobalState) {
        codec.encode_into(state, &mut self.words);
        self.seal();
    }

    /// Append state `i` of `other` (packed by the same codec) as it is.
    pub fn push_packed(&mut self, other: &PackedArena, i: usize) {
        self.words.extend_from_slice(other.packed(i));
        self.seal();
    }

    /// Close the state whose words were just appended.
    fn seal(&mut self) {
        self.ends.push(u32::try_from(self.words.len()).expect("arena exceeds 32 GiB"));
    }

    /// Decode state `i`.
    pub fn get(&self, codec: &StateCodec, i: usize) -> GlobalState {
        codec.decode(self.packed(i))
    }

    /// Decode state `i` over `state`, reusing its allocations.
    pub fn get_into(&self, codec: &StateCodec, i: usize, state: &mut GlobalState) {
        codec.decode_into(self.packed(i), state);
    }

    fn packed(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.words[start..self.ends[i] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpc::k_phase_central;
    use crate::protocols::{
        central_2pc, central_3pc, decentralized_2pc, decentralized_3pc, one_pc,
    };
    use crate::reach::ReachGraph;

    fn roundtrip_whole_graph(protocol: &Protocol) {
        let codec = StateCodec::new(protocol);
        let graph = ReachGraph::build(protocol).unwrap();
        let mut arena = PackedArena::new();
        for s in graph.nodes() {
            arena.push(&codec, s);
        }
        for (i, s) in graph.nodes().iter().enumerate() {
            assert_eq!(&arena.get(&codec, i), s, "round-trip diverged at node {i}");
        }
        // The packed form must actually be compact: every node fits well
        // under its heap representation (locals box + msgs vec).
        let per_state = arena.words_used() as f64 / graph.node_count() as f64;
        assert!(per_state < 8.0, "packed state unexpectedly large: {per_state} words");
    }

    #[test]
    fn catalog_roundtrips_exactly() {
        for n in 2..=4 {
            roundtrip_whole_graph(&central_2pc(n));
            roundtrip_whole_graph(&central_3pc(n));
            roundtrip_whole_graph(&one_pc(n));
        }
        roundtrip_whole_graph(&decentralized_2pc(3));
        roundtrip_whole_graph(&decentralized_3pc(3));
        roundtrip_whole_graph(&k_phase_central(3, 4).unwrap());
        roundtrip_whole_graph(&k_phase_central(3, 5).unwrap());
    }

    #[test]
    fn adversarial_multiplicities_near_the_u16_bound_roundtrip() {
        let protocol = central_2pc(3);
        let codec = StateCodec::new(&protocol);
        let graph = ReachGraph::build(&protocol).unwrap();
        // Take a real reachable state and inflate each message count to
        // the u16 edge values — the codec must carry full 16-bit counts.
        let base = graph
            .nodes()
            .iter()
            .find(|s| s.msgs.distinct_addrs() >= 2)
            .expect("2pc has states with two outstanding addresses");
        for count in [1u16, 2, 254, 255, 256, u16::MAX - 1, u16::MAX] {
            let inflated = GlobalState {
                locals: base.locals.clone(),
                msgs: Msgs::from_sorted_counts(base.msgs.iter().map(|(a, _)| (a, count)).collect()),
            };
            let mut words = Vec::new();
            codec.encode_into(&inflated, &mut words);
            assert_eq!(codec.decode(&words), inflated, "count {count} lost in round-trip");
        }
    }

    #[test]
    #[should_panic(expected = "outside the codec's address universe")]
    fn foreign_messages_are_rejected_not_silently_dropped() {
        use crate::ids::{MsgKind, SiteId};
        let protocol = central_2pc(3);
        let codec = StateCodec::new(&protocol);
        let graph = ReachGraph::build(&protocol).unwrap();
        let mut state = graph.nodes()[0].clone();
        // A message kind no 2PC transition ever emits.
        state.msgs = Msgs::from_sorted_counts(vec![(
            MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind(9999) },
            1,
        )]);
        let mut words = Vec::new();
        codec.encode_into(&state, &mut words);
    }

    #[test]
    fn single_state_fsa_uses_zero_bits() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }
}
