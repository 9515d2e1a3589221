//! CRC-32 (ISO-HDLC polynomial, the one used by zlib/PNG/Ethernet) for WAL
//! record integrity, over compile-time tables, no dependencies.
//!
//! Two kernels share the tables. [`crc32`] takes any length: slice-by-8,
//! then one slice-by-4 step for a tail of four bytes or more, then
//! bytewise. `crc32_fixed` takes a length known at compile time — the
//! DT-log records are 9, 10 and 14 bytes of tag + payload — and folds
//! every byte with one independent lookup, so nothing is carried from one
//! byte to the next but an XOR.

/// `TABLES[0]` is the classic bytewise table for polynomial `0xEDB88320`;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, which
/// lets up to sixteen input bytes be folded with as many independent
/// lookups.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Fold one byte into the running (pre-inverted) checksum.
#[inline]
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Fold four bytes at once — `w` is the little-endian word, already mixed
/// with the running checksum if it leads the group — that `after` more
/// bytes of the same group follow.
#[inline]
fn fold4(w: u32, after: usize) -> u32 {
    TABLES[after + 3][(w & 0xFF) as usize]
        ^ TABLES[after + 2][(w >> 8 & 0xFF) as usize]
        ^ TABLES[after + 1][(w >> 16 & 0xFF) as usize]
        ^ TABLES[after][(w >> 24) as usize]
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = 0xFFFF_FFFFu32;
    let mut groups = data.chunks_exact(8);
    for g in &mut groups {
        c = fold4(c ^ word(g), 4) ^ fold4(word(&g[4..]), 0);
    }
    let mut rest = groups.remainder();
    if rest.len() >= 4 {
        c = fold4(c ^ word(rest), 0);
        rest = &rest[4..];
    }
    for &b in rest {
        c = step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// Compute the CRC-32 of exactly `N` bytes, 4 ≤ `N` ≤ 16: byte `i` is
/// followed by `N - 1 - i` more, so it folds in as `TABLES[N - 1 - i]`,
/// and the initial register (all ones) is mixed into the first four bytes.
/// The same checksum as [`crc32`], in `N` lookups and no loop-carried
/// state.
#[inline]
pub(crate) fn crc32_fixed<const N: usize>(data: &[u8; N]) -> u32 {
    const { assert!(N >= 4 && N <= 16, "the register spans four bytes, the tables sixteen") };
    let mut c = 0;
    for (i, &b) in data.iter().enumerate() {
        let b = if i < 4 { b ^ 0xFF } else { b };
        c ^= TABLES[N - 1 - i][b as usize];
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop the slice-by-8 form replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |c, &b| step(c, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// `n` SplitMix64 bytes.
    fn splitmix_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x5EEDu64;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn agrees_with_the_bytewise_reference_at_every_length_and_alignment() {
        // Every length around the 8-byte stride, at every start offset
        // within a word.
        let buf = splitmix_bytes(308);
        for start in 0..8 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
            }
        }
        for v in [b"123456789".as_slice(), b"", b"a"] {
            assert_eq!(crc32_bytewise(v), crc32(v));
        }
    }

    /// The fixed-length kernel at the lengths the WAL frames (9, 10, 14)
    /// and the ends of its range: every byte value at every position, over
    /// a pseudo-random background, against the bytewise reference.
    #[test]
    fn the_fixed_length_kernel_agrees_with_the_bytewise_reference() {
        fn every_byte_at_every_position<const N: usize>(background: &[u8]) {
            let mut data: [u8; N] = background[..N].try_into().unwrap();
            for i in 0..N {
                let keep = data[i];
                for v in 0..=255 {
                    data[i] = v;
                    assert_eq!(crc32_fixed(&data), crc32_bytewise(&data), "N {N}, byte {i} = {v}");
                    assert_eq!(crc32_fixed(&data), crc32(&data), "N {N}, byte {i} = {v}");
                }
                data[i] = keep;
            }
        }
        let background = splitmix_bytes(16);
        every_byte_at_every_position::<9>(&background);
        every_byte_at_every_position::<10>(&background);
        every_byte_at_every_position::<14>(&background);
        every_byte_at_every_position::<4>(&background);
        every_byte_at_every_position::<16>(&background);
        assert_eq!(crc32_fixed(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn is_pure() {
        assert_eq!(crc32(b"abc"), crc32(b"abc"));
    }
}
