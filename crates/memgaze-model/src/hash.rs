//! The workspace's one FNV-1a-64 implementation.
//!
//! Every checksum in MemGaze — the frame index's per-frame sums, the
//! `MGZP` partial report, and the `memgaze-store` blob and catalog
//! formats and result-cache keys — is 64-bit FNV-1a. It is fast,
//! dependency-free, and has good dispersion; all of these uses are
//! corruption detection and content addressing among trusted peers,
//! not cryptography, so collision resistance against an adversary is
//! explicitly a non-goal.
//!
//! Besides the plain [`fnv1a64`] digest this module offers a *seeded*
//! variant for domain separation: `memgaze-store` keys blobs by
//! [`fnv1a64_seeded`] with its own seed so a content hash can never be
//! confused with a frame checksum of the same bytes, and an incremental
//! [`Fnv64`] hasher for callers that produce bytes in pieces.

/// The standard FNV-1a-64 offset basis — the initial state of an
/// unseeded hash.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a-64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice, starting from the standard offset
/// basis. This is the checksum used by the frame index, the partial-report
/// codec, and the store formats.
#[inline]
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET_BASIS, data)
}

/// 64-bit FNV-1a starting from `seed` instead of the offset basis.
/// Distinct seeds give independent hash domains over the same bytes;
/// `memgaze-store` uses this to keep content-address keys disjoint from
/// payload checksums.
#[inline]
pub fn fnv1a64_seeded(seed: u64, data: &[u8]) -> u64 {
    let mut h = seed;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Incremental FNV-1a-64: feed bytes in any chunking and get the same
/// digest as the one-shot functions over the concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A hasher starting from the standard offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::with_seed(FNV_OFFSET_BASIS)
    }

    /// A hasher starting from `seed` (see [`fnv1a64_seeded`]).
    pub fn with_seed(seed: u64) -> Fnv64 {
        Fnv64 { state: seed }
    }

    /// Absorb more bytes.
    #[inline]
    pub fn update(&mut self, data: &[u8]) -> &mut Fnv64 {
        self.state = fnv1a64_seeded(self.state, data);
        self
    }

    /// The digest over everything absorbed so far. The hasher remains
    /// usable; FNV has no finalization step.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seeded_domains_are_independent() {
        let data = b"same bytes";
        let plain = fnv1a64(data);
        let seeded = fnv1a64_seeded(0x1234_5678_9abc_def0, data);
        assert_ne!(plain, seeded);
        // Seeding with the offset basis is the plain hash.
        assert_eq!(fnv1a64_seeded(FNV_OFFSET_BASIS, data), plain);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 7, 150, 299, 300] {
            let mut h = Fnv64::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finish(), fnv1a64(&data), "split {split}");
        }
        let mut seeded = Fnv64::with_seed(42);
        seeded.update(&data);
        assert_eq!(seeded.finish(), fnv1a64_seeded(42, &data));
    }
}
