//! `Fp128` — the pinned 128-bit fingerprint hasher.
//!
//! Explored-state sets deduplicate by fingerprint alone (hash compaction:
//! no payload is retained to compare against), and the fingerprints reach
//! spill files, so the algorithm must be *specified* — `DefaultHasher` is
//! explicitly unspecified across Rust releases — and both 64-bit halves
//! must be independently well mixed. This module is that specification.
//!
//! ## Algorithm (pinned; changing any constant changes every key)
//!
//! Two independent 64-bit lanes absorb the same word stream:
//!
//! ```text
//! fold(x, k) = lo64(x * k) ^ hi64(x * k)            (64x64 -> 128 multiply)
//! a <- fold(a ^ w,                K_A)              lane A
//! b <- fold(b ^ rotl(w, 32),      K_B)              lane B
//! finish = (fmix64(a ^ len) << 64) | fmix64(b ^ rotl(len, 32))
//! ```
//!
//! where `len` counts absorbed words, `fmix64` is the MurmurHash3
//! finaliser (full avalanche: every input bit flips every output bit with
//! probability ~1/2), and the lane seeds and multipliers are the odd
//! 64-bit constants below. The folded multiply is the wyhash / ahash
//! primitive: one `mul` spreads every input bit over the whole word. The
//! lanes differ in seed, multiplier *and* word rotation, so a collision in
//! one lane says nothing about the other; with both finalised the
//! collision probability for `N` distinct inputs is the birthday bound
//! `N^2 / 2^129` — about 1.5e-21 at a billion states. The checker's
//! explored-state set and `core::reach`'s streaming fold both deduplicate
//! on it; the retained graph builders key exact tables on its high half.
//!
//! Variable-length data is length-prefixed ([`Fp128::write_bytes`]), so
//! the encoding of a field sequence is prefix-free as long as callers
//! length-prefix their own collections.
//!
//! ## Order-independent collections
//!
//! A multiset is fingerprinted *commutatively*: hash each element with a
//! fresh `Fp128`, add the results with [`MultisetFp`] (a wrapping 128-bit
//! sum plus the element count), and absorb that into the parent. The sum
//! makes permutations collide by construction; the count and the addition
//! (rather than XOR) keep duplicates from cancelling — `{x, x}` and `{}`
//! differ, which a plain XOR fold would merge.

use std::hash::{BuildHasherDefault, Hasher};

const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
const SEED_B: u64 = 0x1319_8a2e_0370_7344;
const K_A: u64 = 0x9e37_79b9_7f4a_7c15;
const K_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

#[inline(always)]
fn fold(x: u64, k: u64) -> u64 {
    let m = u128::from(x) * u128::from(k);
    (m as u64) ^ ((m >> 64) as u64)
}

/// MurmurHash3's 64-bit finaliser.
#[inline(always)]
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Streaming two-lane 128-bit fingerprint (see the module docs for the
/// pinned algorithm).
#[derive(Clone, Copy, Debug)]
pub struct Fp128 {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for Fp128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fp128 {
    /// A fresh hasher.
    #[inline]
    pub const fn new() -> Self {
        Self { a: SEED_A, b: SEED_B, len: 0 }
    }

    /// Absorb one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.a = fold(self.a ^ w, K_A);
        self.b = fold(self.b ^ w.rotate_left(32), K_B);
        self.len = self.len.wrapping_add(1);
    }

    /// Absorb a `usize` (as 64 bits, so keys do not depend on the
    /// platform's pointer width).
    #[inline]
    pub fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    /// Absorb a 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_u8(&mut self, w: u8) {
        self.write_u64(u64::from(w));
    }

    /// Absorb a 128-bit word (e.g. a nested fingerprint).
    #[inline]
    pub fn write_u128(&mut self, w: u128) {
        self.write_u64(w as u64);
        self.write_u64((w >> 64) as u64);
    }

    /// Absorb a byte string, length-prefixed, eight little-endian bytes
    /// per word (the tail zero-padded — unambiguous under the prefix).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    /// The 128-bit fingerprint of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u128 {
        let hi = fmix64(self.a ^ self.len);
        let lo = fmix64(self.b ^ self.len.rotate_left(32));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Commutative accumulator for an order-independent collection: a
/// wrapping sum of element fingerprints plus the element count.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultisetFp {
    sum: u128,
    count: u64,
}

impl MultisetFp {
    /// Add one element's fingerprint.
    #[inline]
    pub fn add(&mut self, element: u128) {
        self.sum = self.sum.wrapping_add(element);
        self.count += 1;
    }

    /// Absorb the accumulated multiset into `h`: the count, then — unless
    /// the multiset is empty, the common case — the sum.
    #[inline]
    pub fn write_into(&self, h: &mut Fp128) {
        h.write_u64(self.count);
        if self.count != 0 {
            h.write_u128(self.sum);
        }
    }
}

/// `Hasher` for hash maps keyed by an [`Fp128`] fingerprint: the key is
/// already uniform, so re-hashing it through SipHash is pure overhead. The
/// table sees the key's **high** half — callers that shard by the low bits
/// (`fp as usize & mask`) therefore still spread entries over every bucket
/// of each shard's table.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpKeyHasher(u64);

impl Hasher for FpKeyHasher {
    #[inline]
    fn write_u128(&mut self, key: u128) {
        self.0 = (key >> 64) as u64;
    }

    /// A 64-bit key is one half of a fingerprint already.
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    /// Not used by fingerprint keys; folds arbitrary bytes so the hasher stays
    /// correct (if slow) for any other key type.
    fn write(&mut self, bytes: &[u8]) {
        let mut h = Fp128::new();
        h.write_u64(self.0);
        h.write_bytes(bytes);
        self.0 = (h.finish() >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for `HashMap<u128, _>` keyed by fingerprints.
pub type FpBuildHasher = BuildHasherDefault<FpKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fp(words: &[u64]) -> u128 {
        let mut h = Fp128::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    /// The algorithm is pinned: these values may only change together
    /// with the module docs (they reach spill files).
    #[test]
    fn golden_values_are_pinned() {
        assert_eq!(fp(&[]), 0x7acd_bb98_b134_4213_72de_e428_a469_f6fd);
        assert_eq!(fp(&[0]), 0x7d87_9525_3d27_0d3c_bc80_efa9_7dca_1234);
        assert_eq!(fp(&[1, 2, 3]), 0x3486_d9b7_2adf_04bc_98cd_f7b6_ef5c_b9fd);
    }

    #[test]
    fn order_length_and_padding_matter() {
        assert_ne!(fp(&[1, 2]), fp(&[2, 1]));
        assert_ne!(fp(&[0]), fp(&[0, 0]));
        let bytes = |b: &[u8]| {
            let mut h = Fp128::new();
            h.write_bytes(b);
            h.finish()
        };
        assert_ne!(bytes(&[1, 2, 3]), bytes(&[1, 2, 3, 0]));
        assert_ne!(bytes(&[]), bytes(&[0]));
        assert_eq!(bytes(&[9; 17]), bytes(&[9; 17]));
    }

    /// Each lane avalanches on its own: flipping any single input bit
    /// flips close to half of *each* 64-bit half.
    #[test]
    fn both_halves_avalanche() {
        let base = fp(&[0x0123_4567_89ab_cdef, 42]);
        for bit in 0..64 {
            let flipped = fp(&[0x0123_4567_89ab_cdef ^ (1 << bit), 42]);
            let d = base ^ flipped;
            let (hi, lo) = (((d >> 64) as u64).count_ones(), (d as u64).count_ones());
            assert!((12..=52).contains(&hi), "bit {bit}: high half flipped {hi} bits");
            assert!((12..=52).contains(&lo), "bit {bit}: low half flipped {lo} bits");
        }
    }

    #[test]
    fn no_collisions_on_a_dense_small_domain() {
        let mut seen = HashMap::new();
        for x in 0..64u64 {
            for y in 0..64u64 {
                assert!(seen.insert(fp(&[x, y]), (x, y)).is_none(), "collision at {x},{y}");
            }
        }
    }

    #[test]
    fn multiset_is_commutative_and_counts_duplicates() {
        let of = |elems: &[u64]| {
            let mut m = MultisetFp::default();
            for &e in elems {
                m.add(fp(&[e]));
            }
            let mut h = Fp128::new();
            m.write_into(&mut h);
            h.finish()
        };
        assert_eq!(of(&[1, 2, 3]), of(&[3, 1, 2]));
        assert_ne!(of(&[1, 1]), of(&[]));
        assert_ne!(of(&[1, 1, 2]), of(&[2]));
        assert_ne!(of(&[1]), of(&[1, 1]));
    }

    #[test]
    fn key_hasher_exposes_the_high_half() {
        use std::hash::BuildHasher;
        let key = 0xdead_beef_0000_0001_0000_0000_0000_00ffu128;
        assert_eq!(FpBuildHasher::default().hash_one(key), 0xdead_beef_0000_0001);
        let mut m: HashMap<u128, u32, FpBuildHasher> = HashMap::default();
        m.insert(key, 7);
        assert_eq!(m.get(&key), Some(&7));
    }
}
