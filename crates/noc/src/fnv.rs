//! FNV-1a hashing for the simulator hot path and for determinism digests.
//!
//! Two consumers share this module:
//!
//! * [`FnvBuildHasher`] keys the per-packet bookkeeping maps of
//!   [`crate::Network`]. The default `std` hasher (SipHash-1-3) is keyed
//!   and DoS-resistant — properties the simulator does not need for its
//!   own sequentially assigned packet ids — and costs noticeably more per
//!   lookup. FNV-1a over the 8 id bytes is a fraction of that. Map
//!   *semantics* are untouched, so switching hashers cannot change any
//!   simulation output (the maps are never iterated).
//! * [`Digest`] folds simulation state into a stable 64-bit fingerprint.
//!   Unlike `std::hash::Hasher` output, FNV-1a is fully specified, so the
//!   golden values recorded by the cross-implementation determinism tests
//!   stay valid across Rust versions and architectures. The same approach
//!   (and constants) already key the experiment cache in `htpb-harness`.

use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A [`Hasher`] computing FNV-1a over the written bytes.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// `BuildHasher` plugging [`FnvHasher`] into `HashMap`.
pub(crate) type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed by FNV-1a — the simulator's hot-path map type.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>; // htpb-lint: allow(determinism/std-hash) -- alias definition; the FNV hasher replaces SipHash here

/// A `HashSet` keyed by FNV-1a, the companion to [`FnvHashMap`].
pub type FnvHashSet<T> = std::collections::HashSet<T, FnvBuildHasher>; // htpb-lint: allow(determinism/std-hash) -- alias definition; the FNV hasher replaces SipHash here

/// An incrementally built, platform-stable 64-bit FNV-1a fingerprint.
///
/// Feed it words with [`Digest::u64`] (every narrower integer widens
/// losslessly); equal digests over a cycle-by-cycle feed of simulator
/// state certify that two implementations behaved identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// A fresh digest at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one 64-bit word (little-endian bytes) into the digest.
    pub fn u64(&mut self, word: u64) -> &mut Self {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The current fingerprint value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_matches_published_vectors() {
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(FnvHasher::default().finish(), FNV_OFFSET);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.u64(1).u64(2);
        let mut b = Digest::new();
        b.u64(2).u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrips() {
        let mut m: FnvHashMap<u64, u32> = FnvHashMap::default();
        for i in 0..1_000u64 {
            m.insert(i, i as u32 * 3);
        }
        assert_eq!(m.get(&500), Some(&1_500));
        assert_eq!(m.remove(&999), Some(2_997));
        assert_eq!(m.len(), 999);
    }
}
