//! A deterministic hash map for `u64` ids (trajectory ids, chunk keys).
//!
//! The std default hasher is SipHash keyed by a per-process `RandomState`:
//! slow for an 8-byte key and seeded differently on every run. [`IdHasher`]
//! is one multiply by an odd constant, with the high half folded into the
//! low half. The fold matters because hashbrown picks buckets by the low
//! bits: replica `r` of `R` holds ids `r, r + R, r + 2R, …`, and a bare
//! multiply maps such a stride onto few low-bit patterns. Key it only by
//! values the program assigns: it offers no defence against keys chosen
//! to collide.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for `u64` keys; the same on every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher hashes only u64 keys");
    }

    fn write_u64(&mut self, id: u64) {
        let x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }
}

/// A `HashMap` keyed by `u64` ids through [`IdHasher`]. Its iteration
/// order is deterministic but arbitrary: callers that need id order sort.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        // A uniform hash puts 1,024 keys on about 647 of 1,024 buckets.
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u64, 8, 128, 4096] {
            let buckets: HashSet<u64> = (0..1024u64)
                .map(|k| build.hash_one(3 + k * stride) & 1023)
                .collect();
            assert!(
                buckets.len() >= 500,
                "stride {stride}: {} distinct low-10-bit values",
                buckets.len()
            );
        }
    }

    #[test]
    fn map_round_trips_ids() {
        let mut m: IdMap<u64> = IdMap::default();
        for id in (0..4096u64).step_by(128) {
            m.insert(id, id * 2);
        }
        assert_eq!(m.len(), 32);
        assert!((0..4096u64).step_by(128).all(|id| m[&id] == id * 2));
    }
}
