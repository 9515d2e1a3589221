//! The fixed-width bit layout of a [`GlobalState`]: a state of a protocol
//! is `W` machine words, the same `W` for every state of that protocol.
//!
//! [`StateCodec`] lays the words out once per protocol:
//!
//! * each site's local state in exactly `ceil(log2(state_count))` bits
//!   (0 bits for a single-state FSA);
//! * one count field for each address of the protocol's **address
//!   universe** — the finite set of `(src, dst, kind)` triples any
//!   reachable state can hold, the initial messages plus every transition
//!   emission;
//! * no field straddling a word, so a field is read with one shift and one
//!   mask and written without a carry into its neighbour.
//!
//! ## Why a count field can be narrow
//!
//! The paper's FSAs are acyclic ([`Fsa::validate`](crate::fsa::Fsa::validate)
//! insists). A site whose state diagram is acyclic enters each state at
//! most once, so it fires each transition at most once, so an address never
//! holds more than its initial copies plus the emissions its sender's
//! transition table lists. That static bound — 1 or 2 in the catalog —
//! sizes the field; this is the statically bounded case of Pachl's
//! reachability analysis for communicating finite state machines. A sender
//! that does *not* pass the acyclicity check (an unvalidated protocol) gets
//! a full 16-bit field, the width of a [`Msgs`] count. Either way the bound
//! is a guard, never an assumption: an emission into a field already at its
//! maximum is [`ProtocolError::MsgOverflow`], from the initial state on.
//!
//! The successor generator in [`crate::reach`] runs on these words, the
//! retained graph and the streaming frontier store them back to back in a
//! [`PackedArena`], and `decode(encode(s)) == s` structurally (round-trip
//! tested across the catalog), so a [`GlobalState`] is built only for a
//! caller that asks to read one.

use std::collections::BTreeMap;

use crate::error::ProtocolError;
use crate::ids::{SiteId, StateId};
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

/// Widest count field: a [`Msgs`] multiplicity is a `u16`.
const COUNT_BITS: u32 = u16::BITS;

/// One field of the layout: the values `0..=mask`, `shift` bits up in word
/// `word` of a state. A zero-width field has mask 0 and always reads 0.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Field {
    word: u32,
    shift: u32,
    mask: u64,
}

impl Field {
    /// The field's value in `words`.
    #[inline]
    pub(crate) fn get(self, words: &[u64]) -> u64 {
        (words[self.word as usize] >> self.shift) & self.mask
    }

    /// The largest value the field holds.
    #[inline]
    pub(crate) fn max(self) -> u64 {
        self.mask
    }

    /// The field's width in bits.
    pub(crate) fn bits(self) -> u32 {
        u64::BITS - self.mask.leading_zeros()
    }

    /// `self` and `next` as one field — `next`'s value above `self`'s —
    /// when `next` begins at the bit where `self` ends, in the same word.
    /// (Built lazily: a field that fills its word cannot shift `next` in.)
    pub(crate) fn join(self, next: Field) -> Option<Field> {
        (self.word == next.word && self.shift + self.bits() == next.shift).then(|| Field {
            word: self.word,
            shift: self.shift,
            mask: self.mask | next.mask << self.bits(),
        })
    }

    /// Overwrite the field with `value`, which must fit.
    #[inline]
    pub(crate) fn set(self, words: &mut [u64], value: u64) {
        debug_assert!(value <= self.mask);
        let w = &mut words[self.word as usize];
        *w = (*w & !(self.mask << self.shift)) | (value << self.shift);
    }

    /// Raise the field by `n`; the caller has checked there is room.
    #[inline]
    pub(crate) fn add(self, words: &mut [u64], n: u64) {
        debug_assert!(self.get(words) + n <= self.mask);
        words[self.word as usize] += n << self.shift;
    }

    /// Lower the field by `n`; the caller has checked it holds that many.
    #[inline]
    pub(crate) fn sub(self, words: &mut [u64], n: u64) {
        debug_assert!(self.get(words) >= n);
        words[self.word as usize] -= n << self.shift;
    }
}

/// Hands out fields front to back, opening a new word when the next field
/// would straddle one.
#[derive(Default)]
struct Packer {
    word: u32,
    used: u32,
}

impl Packer {
    fn place(&mut self, bits: u32) -> Field {
        if bits == 0 {
            return Field { word: 0, shift: 0, mask: 0 };
        }
        if self.used + bits > u64::BITS {
            self.word += 1;
            self.used = 0;
        }
        let field = Field { word: self.word, shift: self.used, mask: u64::MAX >> (64 - bits) };
        self.used += bits;
        field
    }
}

/// The per-protocol layout of a packed [`GlobalState`]. Build once, use
/// for every state of that protocol.
#[derive(Clone, Debug)]
pub struct StateCodec {
    /// Words per state (at least one).
    words: usize,
    /// Each site's local-state field.
    locals: Vec<Field>,
    /// The sorted address universe: every `MsgAddr` a reachable state of
    /// this protocol can possibly hold.
    addrs: Vec<MsgAddr>,
    /// `counts[i]` = the count field of `addrs[i]`.
    counts: Vec<Field>,
}

impl StateCodec {
    /// Compute the layout for `protocol`, which need not have been
    /// validated. Fails with [`ProtocolError::BadStateRef`] if an initial
    /// state or a transition target lies outside its site's state table:
    /// such a value has no place in the site's field.
    pub fn new(protocol: &Protocol) -> Result<Self, ProtocolError> {
        // Most copies of each address that can be outstanding at once,
        // were every sender acyclic (see the module docs).
        let mut bounds: BTreeMap<MsgAddr, usize> = BTreeMap::new();
        for m in protocol.initial_msgs() {
            *bounds.entry(MsgAddr { src: m.src, dst: m.dst, kind: m.kind }).or_default() += 1;
        }
        let mut cyclic = Vec::with_capacity(protocol.n_sites());
        for (i, fsa) in protocol.fsas().iter().enumerate() {
            let src = SiteId(i as u32);
            let targets = fsa.transitions().iter().map(|t| t.to);
            if let Some(state) =
                targets.chain([fsa.initial()]).find(|s| s.index() >= fsa.state_count())
            {
                return Err(ProtocolError::BadStateRef { site: src, state });
            }
            cyclic.push(fsa.check_acyclic(src).is_err());
            for e in fsa.transitions().iter().flat_map(|t| &t.emit) {
                *bounds.entry(MsgAddr { src, dst: e.dst, kind: e.kind }).or_default() += 1;
            }
        }

        let mut packer = Packer::default();
        let locals =
            protocol.fsas().iter().map(|f| packer.place(bits_for(f.state_count()))).collect();
        let counts = bounds
            .iter()
            .map(|(addr, &bound)| {
                let looping =
                    !addr.src.is_client() && cyclic.get(addr.src.index()).is_some_and(|&c| c);
                let bits = if looping { COUNT_BITS } else { bits_for(bound + 1).min(COUNT_BITS) };
                packer.place(bits)
            })
            .collect();
        Ok(Self {
            words: packer.word as usize + 1,
            locals,
            addrs: bounds.into_keys().collect(),
            counts,
        })
    }

    /// Words per state: every state of the protocol takes exactly this
    /// many.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Size of the address universe (one count field each).
    pub fn universe_len(&self) -> usize {
        self.addrs.len()
    }

    /// The local-state field of site `site`.
    pub(crate) fn local_field(&self, site: usize) -> Field {
        self.locals[site]
    }

    /// The count field of `addr`, if the universe holds it.
    pub(crate) fn count_field(&self, addr: MsgAddr) -> Option<Field> {
        self.addrs.binary_search(&addr).ok().map(|i| self.counts[i])
    }

    /// Every address of the universe with its count field, in address
    /// order: what [`crate::symmetry`] cuts a site's block out of.
    pub(crate) fn channels(&self) -> impl Iterator<Item = (MsgAddr, Field)> + '_ {
        self.addrs.iter().copied().zip(self.counts.iter().copied())
    }

    /// The overflow error for the address whose count field is `field`.
    pub(crate) fn overflow(&self, field: Field) -> ProtocolError {
        let at = self.counts.iter().position(|&f| f == field).expect("a count field of this codec");
        let MsgAddr { src, dst, kind } = self.addrs[at];
        ProtocolError::MsgOverflow { src, dst, kind }
    }

    /// Every site's local state in site order, read from a packed state.
    pub(crate) fn locals<'a>(&'a self, words: &'a [u64]) -> impl Iterator<Item = StateId> + 'a {
        self.locals.iter().map(move |f| StateId(f.get(words) as u32))
    }

    /// The packed initial global state of `protocol` (the one this codec
    /// was built for). Fails with [`ProtocolError::MsgOverflow`] if the
    /// initial copies of one address outnumber a `u16`.
    pub(crate) fn initial(&self, protocol: &Protocol) -> Result<Vec<u64>, ProtocolError> {
        let mut words = vec![0u64; self.words];
        for (field, fsa) in self.locals.iter().zip(protocol.fsas()) {
            field.set(&mut words, u64::from(fsa.initial().0));
        }
        for m in protocol.initial_msgs() {
            let addr = MsgAddr { src: m.src, dst: m.dst, kind: m.kind };
            let field = self.count_field(addr).expect("initial messages are in the universe");
            if field.get(&words) == field.max() {
                return Err(self.overflow(field));
            }
            field.add(&mut words, 1);
        }
        Ok(words)
    }

    /// Append the packed form of `state` — [`StateCodec::words`] words —
    /// to `out`. Panics if `state` does not fit this codec's protocol:
    /// wrong site count, a local state outside its field, a message outside
    /// the address universe, or a count above its field's maximum. None of
    /// these is silently truncated, and none can happen to a state the
    /// reachability expansion produced.
    pub fn encode_into(&self, state: &GlobalState, out: &mut Vec<u64>) {
        assert_eq!(state.locals.len(), self.locals.len(), "site count mismatch");
        let at = out.len();
        out.resize(at + self.words, 0);
        let words = &mut out[at..];
        for (field, &local) in self.locals.iter().zip(state.locals.iter()) {
            assert!(u64::from(local.0) <= field.max(), "local state {local:?} outside its field");
            field.set(words, u64::from(local.0));
        }
        for (addr, count) in state.msgs.iter() {
            let field = self
                .count_field(addr)
                .expect("state holds a message outside the codec's address universe");
            assert!(
                u64::from(count) <= field.max(),
                "{count} copies of {addr:?} are above its field's bound of {}",
                field.max()
            );
            field.set(words, u64::from(count));
        }
    }

    /// Decode one state from its packed words, allocating exactly what it
    /// holds: the locals box, and the message vector unless it is empty.
    pub fn decode(&self, words: &[u64]) -> GlobalState {
        assert_eq!(words.len(), self.words, "a packed state is {} words", self.words);
        let held = self.counts.iter().filter(|f| f.get(words) != 0).count();
        let mut msgs = Vec::with_capacity(held);
        msgs.extend(self.addrs.iter().zip(&self.counts).filter_map(|(&addr, field)| {
            let count = field.get(words) as u16;
            (count != 0).then_some((addr, count))
        }));
        GlobalState { locals: self.locals(words).collect(), msgs: Msgs::from_sorted_counts(msgs) }
    }
}

/// Packed states back to back: state `i` is words `i * stride ..
/// (i + 1) * stride` of one flat vector, so a whole BFS level — or a whole
/// graph — is one allocation and a state is found by a multiplication.
#[derive(Clone, Debug)]
pub struct PackedArena {
    words: Vec<u64>,
    stride: usize,
}

impl PackedArena {
    /// An empty arena of `stride`-word states ([`StateCodec::words`]).
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "a packed state is at least one word");
        Self { words: Vec::new(), stride }
    }

    /// An empty arena with room for `states` states.
    pub fn with_capacity(stride: usize, states: usize) -> Self {
        let mut arena = Self::new(stride);
        arena.words.reserve_exact(states * stride);
        arena
    }

    /// Number of packed states.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// True if no states are packed.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Words currently held (the arena's memory footprint in `u64`s).
    pub fn words_used(&self) -> usize {
        self.words.len()
    }

    /// Append one packed state.
    pub fn push(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.stride, "a packed state is {} words", self.stride);
        self.words.extend_from_slice(state);
    }

    /// The packed state `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::{Consume, Envelope, FsaBuilder, StateClass};
    use crate::ids::MsgKind;
    use crate::kpc::k_phase_central;
    use crate::protocol::{InitialMsg, Paradigm};
    use crate::protocols::{catalog, central_2pc, central_3pc, decentralized_3pc};
    use crate::reach::ReachGraph;

    /// The most copies of `addr` a packed state can hold.
    fn limit(codec: &StateCodec, addr: MsgAddr) -> u16 {
        codec.count_field(addr).expect("an address of the universe").max() as u16
    }

    /// On every reachable state of `protocol`: each count is within the
    /// bound its field was sized by, and the state survives the round trip.
    fn roundtrip_whole_graph(protocol: &Protocol) {
        let codec = StateCodec::new(protocol).unwrap();
        let graph = ReachGraph::build(protocol).unwrap();
        let mut arena = PackedArena::new(codec.words());
        let mut words = Vec::new();
        for s in graph.nodes() {
            for (addr, count) in s.msgs.iter() {
                assert!(count <= limit(&codec, addr), "{}: {addr:?}", protocol.name);
            }
            words.clear();
            codec.encode_into(s, &mut words);
            arena.push(&words);
        }
        assert_eq!(arena.len(), graph.node_count());
        assert_eq!(arena.words_used(), graph.node_count() * codec.words());
        for (i, s) in graph.nodes().iter().enumerate() {
            assert_eq!(&codec.decode(arena.get(i)), s, "{}: node {i}", protocol.name);
        }
    }

    #[test]
    fn every_reachable_state_is_within_its_bounds_and_roundtrips() {
        for n in 2..=5 {
            for p in catalog(n) {
                roundtrip_whole_graph(&p);
            }
        }
        roundtrip_whole_graph(&k_phase_central(3, 4).unwrap());
        roundtrip_whole_graph(&k_phase_central(3, 5).unwrap());
    }

    #[test]
    fn layout_widths_are_pinned() {
        let words = |p: Protocol| StateCodec::new(&p).unwrap().words();
        assert_eq!(words(central_2pc(7)), 1);
        assert_eq!(words(central_3pc(7)), 2);
        assert_eq!(words(central_3pc(10)), 2);
        assert_eq!(words(decentralized_3pc(6)), 3);
        // The catalog's channels hold one or two messages at most.
        let codec = StateCodec::new(&central_3pc(7)).unwrap();
        assert!(codec.counts.iter().all(|f| f.max() == 1 || f.max() == 3));
    }

    /// A reachable state of central 2PC n=3 with a message outstanding.
    fn busy_state() -> (StateCodec, GlobalState) {
        let protocol = central_2pc(3);
        let graph = ReachGraph::build(&protocol).unwrap();
        let state = graph.nodes().iter().find(|s| !s.msgs.is_empty()).unwrap().clone();
        (StateCodec::new(&protocol).unwrap(), state)
    }

    #[test]
    #[should_panic(expected = "above its field's bound")]
    fn counts_above_their_bound_are_rejected_not_truncated() {
        let (codec, mut state) = busy_state();
        let (addr, _) = state.msgs.iter().next().unwrap();
        let over = limit(&codec, addr) + 1;
        state.msgs = Msgs::from_sorted_counts(vec![(addr, over)]);
        codec.encode_into(&state, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "outside the codec's address universe")]
    fn foreign_messages_are_rejected_not_silently_dropped() {
        let (codec, mut state) = busy_state();
        // A message kind no 2PC transition ever emits.
        state.msgs = Msgs::from_sorted_counts(vec![(
            MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind(9999) },
            1,
        )]);
        codec.encode_into(&state, &mut Vec::new());
    }

    #[test]
    fn a_cyclic_senders_addresses_get_sixteen_bits() {
        // Site 0 re-enters q, so nothing bounds what it has sent; site 1's
        // one reply is bounded by its table.
        let mut sender = FsaBuilder::new("sender");
        let q = sender.state("q", StateClass::Initial);
        let yes = Envelope::new(SiteId(1), MsgKind::YES);
        sender.transition(q, q, Consume::Spontaneous, vec![yes], None, "/ yes");
        let mut reader = FsaBuilder::new("reader");
        let q1 = reader.state("q", StateClass::Initial);
        let c1 = reader.state("c", StateClass::Committed);
        let ack = Envelope::new(SiteId(0), MsgKind::ACK);
        reader.transition(q1, c1, Consume::one(SiteId(0), MsgKind::YES), vec![ack], None, "");
        let request = InitialMsg { src: SiteId::CLIENT, dst: SiteId(0), kind: MsgKind::REQUEST };
        let p = Protocol::new(
            "looping sender",
            Paradigm::Custom,
            vec![sender.build(), reader.build()],
            vec![request; 3],
        );
        let codec = StateCodec::new(&p).unwrap();
        let looped = MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
        let bounded = MsgAddr { src: SiteId(1), dst: SiteId(0), kind: MsgKind::ACK };
        let preloaded = MsgAddr { src: SiteId::CLIENT, dst: SiteId(0), kind: MsgKind::REQUEST };
        assert_eq!(limit(&codec, looped), u16::MAX);
        assert_eq!(limit(&codec, bounded), 1);
        assert_eq!(limit(&codec, preloaded), 3, "three initial copies take two bits");
        assert_eq!(codec.words(), 1);

        for count in [1u16, 255, 256, u16::MAX] {
            let state = GlobalState {
                locals: vec![StateId(0), StateId(1)].into(),
                msgs: Msgs::from_sorted_counts(vec![(looped, count), (bounded, 1)]),
            };
            let mut words = Vec::new();
            codec.encode_into(&state, &mut words);
            assert_eq!(codec.decode(&words), state, "count {count} lost in round-trip");
        }
    }

    #[test]
    fn a_transition_into_a_state_the_table_lacks_is_a_typed_error() {
        let mut b = FsaBuilder::new("bad");
        let q = b.state("q", StateClass::Initial);
        b.transition(q, StateId(7), Consume::Spontaneous, vec![], None, "astray");
        let p = Protocol::new("bad ref", Paradigm::Custom, vec![b.build()], vec![]);
        let bad = ProtocolError::BadStateRef { site: SiteId(0), state: StateId(7) };
        assert_eq!(StateCodec::new(&p).err(), Some(bad.clone()));
        assert_eq!(ReachGraph::build(&p).err(), Some(bad));
    }

    #[test]
    fn fields_never_straddle_a_word() {
        let mut packer = Packer::default();
        let fields: Vec<Field> = [30, 30, 30, 0, 4, 16, 16, 16, 16].map(|b| packer.place(b)).into();
        assert_eq!(fields[0], Field { word: 0, shift: 0, mask: (1 << 30) - 1 });
        assert_eq!(fields[1].shift, 30);
        assert_eq!((fields[2].word, fields[2].shift), (1, 0), "30 + 30 + 30 > 64");
        assert_eq!(fields[3].mask, 0, "a single-state FSA takes no bits");
        assert_eq!((fields[4].word, fields[4].shift), (1, 30));
        assert_eq!((fields[6].word, fields[6].shift), (2, 0), "34 + 16 + 16 > 64");
        assert_eq!((fields[8].word, fields[8].shift), (2, 32));

        let mut words = vec![u64::MAX; 3];
        fields[4].set(&mut words, 0);
        assert_eq!(words, [u64::MAX, !(0xf << 30), u64::MAX], "a write stays in its field");
        fields[4].add(&mut words, 9);
        fields[4].sub(&mut words, 2);
        assert_eq!(fields[4].get(&words), 7);
    }

    #[test]
    fn adjacent_fields_join_and_a_full_word_joins_nothing() {
        let mut packer = Packer::default();
        let fields: Vec<Field> = [16, 16, 32, 64].map(|b| packer.place(b)).into();
        let low = fields[0].join(fields[1]).expect("adjacent in word 0");
        assert_eq!(low, Field { word: 0, shift: 0, mask: u32::MAX.into() });
        let full = low.join(fields[2]).expect("adjacent in word 0");
        assert_eq!(full.bits(), 64);
        assert_eq!(full.join(fields[3]), None, "the next field is in word 1");
        assert_eq!(fields[1].join(fields[0]), None, "order matters");
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
