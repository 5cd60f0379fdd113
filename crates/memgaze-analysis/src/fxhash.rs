//! A vendored FxHash-style hasher for the analysis hot paths.
//!
//! The per-window maps (last-access positions, footprint block sets,
//! stride trackers) are keyed by small integers — block numbers and
//! instruction pointers. SipHash's DoS resistance buys nothing there
//! and costs a large constant factor per lookup, so the hot paths use
//! the Firefox/rustc multiply-rotate hash instead: one wrapping
//! multiply and a rotate per 8-byte word. Not DoS-resistant — keep it
//! out of anything fed by untrusted remote input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc/Firefox "Fx" hash: wrapping multiply + rotate per word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std() {
        let mut fx: FxHashMap<u64, u64> = FxHashMap::default();
        let mut std_map = std::collections::HashMap::new();
        for i in 0..1000u64 {
            let k = i.wrapping_mul(0x9E37_79B9) % 257;
            *fx.entry(k).or_insert(0) += 1;
            *std_map.entry(k).or_insert(0) += 1;
        }
        assert_eq!(fx.len(), std_map.len());
        for (k, v) in &std_map {
            assert_eq!(fx.get(k), Some(v));
        }
    }

    #[test]
    fn sequential_keys_fill_buckets() {
        // Sequential block numbers must not collapse to a few buckets.
        // The odd multiplier is bijective mod any power of two, so the
        // low bits (hashbrown's bucket index) are perfectly spread.
        let mut buckets = std::collections::HashSet::new();
        let mut full = std::collections::HashSet::new();
        for block in 0..4096u64 {
            let mut h = FxHasher::default();
            h.write_u64(block);
            let hash = h.finish();
            buckets.insert(hash & 0xFFF);
            full.insert(hash);
        }
        assert_eq!(
            buckets.len(),
            4096,
            "low-bit bucket index must be bijective"
        );
        assert_eq!(full.len(), 4096, "full hashes must not collide");
    }
}
