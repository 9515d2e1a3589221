//! CRC-32 (ISO-HDLC polynomial, the one used by zlib/PNG/Ethernet) for WAL
//! record integrity. Slice-by-8 over compile-time tables, no dependencies.
//!
//! The DT-log records are 9, 10 and 14 bytes of tag + payload, so what
//! follows the one eight-byte fold matters as much as the fold: a tail of
//! four bytes or more takes one slice-by-4 step before the bytewise rest.

/// `TABLES[0]` is the classic bytewise table for polynomial `0xEDB88320`;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, which
/// lets eight (or four) input bytes be folded with as many independent
/// lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
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
    while k < 8 {
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

    #[test]
    fn agrees_with_the_bytewise_reference_at_every_length_and_alignment() {
        // SplitMix64 bytes: every length around the 8-byte stride, at every
        // start offset within a word.
        let mut state = 0x5EEDu64;
        let buf: Vec<u8> = (0..308)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
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
