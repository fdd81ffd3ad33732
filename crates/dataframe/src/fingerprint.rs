//! Data fingerprints for cross-call caching.
//!
//! A fingerprint answers "is this the same data I computed on last time?"
//! in O(columns), not O(rows). The fast path leans on the zero-copy buffer
//! layout: a column is an `Arc`-shared buffer plus an `(offset, len)`
//! window, so *pointer identity + window* identifies the bytes without
//! reading them — the same observation behind [`crate::Column::shares_buffer`].
//! Because buffers are immutable once built and every mutation path is
//! copy-on-write ([`crate::Column::make_unique`] re-packs into a fresh
//! allocation), a changed value can never hide behind an unchanged
//! fingerprint.
//!
//! Pointer identity alone is vulnerable to ABA reuse (an allocator can hand
//! a freed buffer's address to a new buffer), so the fast fingerprint also
//! folds in a small content sample — a few head/tail values — making
//! accidental collision across reallocations vanishingly unlikely while
//! staying O(1) per column. For buffers whose identity is not meaningful
//! (e.g. data re-read from disk into fresh allocations each time), the
//! slower [`crate::Column::content_fingerprint`] hashes every value instead.
//!
//! Hashing is fixed-seed FNV-1a, so fingerprints are stable across
//! processes — a prerequisite for any cache that outlives one run.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A fixed-seed FNV-1a hasher: deterministic across processes and
/// platforms, unlike [`std::collections::hash_map::DefaultHasher`], whose
/// initial state is unspecified. It hashes fingerprints here and task
/// keys in `eda-taskgraph`; speed is fine for that material.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher starting from the standard FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Little-endian on every platform, so a fingerprint does not
    /// depend on the host's byte order.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors; pinned so the fingerprint
        // scheme stays byte-stable across releases.
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_order_sensitive() {
        let mut a = Fnv::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
