//! Stable content hashing for cache keys.
//!
//! The cache key must be identical across runs, architectures and Rust
//! versions, so it cannot use `std::hash` (whose `Hasher` values are not
//! specified to be stable). FNV-1a over a canonical parameter string is
//! trivially portable and collision-resistant enough for the few thousand
//! distinct jobs a paper-scale campaign enumerates. The loop and constants
//! are [`htpb_noc::FnvHasher`]'s — the workspace's one FNV-1a.

use std::hash::Hasher as _;

use htpb_noc::FnvHasher;

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over several segments with a separator folded in between, so
/// `("ab", "c")` and `("a", "bc")` hash differently.
#[must_use]
pub fn fnv1a64_parts(parts: &[&str]) -> u64 {
    let mut h = FnvHasher::default();
    for part in parts {
        h.write(part.as_bytes());
        h.write(&[0x1F]); // unit separator
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn parts_are_separator_sensitive() {
        assert_ne!(fnv1a64_parts(&["ab", "c"]), fnv1a64_parts(&["a", "bc"]));
        assert_ne!(fnv1a64_parts(&["ab"]), fnv1a64(b"ab"));
    }
}
