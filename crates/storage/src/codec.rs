//! Minimal byte-cursor traits for the WAL's binary record format.
//!
//! These mirror the tiny slice of the `bytes` crate's `Buf`/`BufMut` API
//! the log codec actually uses, so the workspace stays free of external
//! dependencies. [`BufExt`] is a consuming read cursor over `&[u8]`
//! (each getter advances the slice); [`BufMutExt`] appends little-endian
//! primitives to a `Vec<u8>`.

/// A consuming little-endian read cursor over a byte slice.
pub(crate) trait BufExt {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skip `n` bytes. Panics if fewer remain.
    fn advance(&mut self, n: usize);
    /// Read one byte.
    fn get_u8(&mut self) -> u8;
    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
}

impl BufExt for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.advance(1);
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

/// Little-endian append helpers for a growable byte buffer.
pub(crate) trait BufMutExt {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Append raw bytes.
    fn put_slice(&mut self, v: &[u8]);
}

impl BufMutExt for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut out = Vec::new();
        out.put_u8(0xAB);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(0x0123_4567_89AB_CDEF);
        out.put_slice(b"xyz");

        let mut cur: &[u8] = &out;
        assert_eq!(cur.remaining(), 1 + 4 + 8 + 3);
        assert_eq!(cur.get_u8(), 0xAB);
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(cur, b"xyz");
        cur.advance(3);
        assert_eq!(cur.remaining(), 0);
    }
}
