//! The workspace's two 64-bit hashes: XXH64 for bulk checksums and
//! content addresses, FNV-1a-64 for identities.
//!
//! Every byte the store puts, verifies, re-analyzes or reassembles is
//! summed, so the bulk sum is [`xxh64`], the published xxHash 64-bit
//! algorithm: four independent 8-byte lanes per 32-byte stripe, so its
//! speed is bound by memory, not by one multiply's latency per byte. It
//! seals every `MGZP`, `MGZB` and `MGZC` frame, sums the frame index's
//! header and frames, and (seeded) addresses the store's blobs.
//!
//! FNV-1a-64 stays where its value is an identity that must not move:
//! the golden digests ([`fnv1a64`], [`Fnv64`]), the store's result-cache
//! keys, and the sums of the version-1 store objects written before
//! XXH64, which still verify with it. Neither hash is cryptographic:
//! these are corruption checks and content addresses among trusted
//! peers, and collision resistance against an adversary is explicitly
//! a non-goal.
//!
//! Both come plain and *seeded*, for domain separation:
//! `memgaze-store` keys blobs by a seeded hash so a content address can
//! never be confused with a frame checksum of the same bytes.

/// XXH64's five primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64 with seed 0: the checksum every sealed frame and the frame
/// index carry.
#[inline]
pub fn xxh64(data: &[u8]) -> u64 {
    xxh64_seeded(0, data)
}

/// XXH64 of `data` under `seed`. Whole 32-byte stripes go through four
/// lanes; the last 0–31 bytes are folded in as 8-byte words, one 4-byte
/// word and single bytes.
pub fn xxh64_seeded(seed: u64, data: &[u8]) -> u64 {
    let (words, bytes) = data.as_chunks::<8>();
    let (stripes, words) = words.as_chunks::<4>();
    let mut h = if stripes.is_empty() {
        seed.wrapping_add(P5)
    } else {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        for [w1, w2, w3, w4] in stripes {
            v1 = xxh_round(v1, u64::from_le_bytes(*w1));
            v2 = xxh_round(v2, u64::from_le_bytes(*w2));
            v3 = xxh_round(v3, u64::from_le_bytes(*w3));
            v4 = xxh_round(v4, u64::from_le_bytes(*w4));
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = (h ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    };
    h = h.wrapping_add(data.len() as u64);
    for word in words {
        h ^= xxh_round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let bytes = match bytes.split_first_chunk::<4>() {
        Some((word, rest)) => {
            h ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest
        }
        None => bytes,
    };
    for &b in bytes {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// One lane step: absorb an 8-byte word.
#[inline(always)]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The standard FNV-1a-64 offset basis — the initial state of an
/// unseeded hash.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a-64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice, starting from the standard offset
/// basis: the golden digests, the result-cache keys, and the sum of the
/// version-1 store objects.
#[inline]
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET_BASIS, data)
}

/// 64-bit FNV-1a starting from `seed` instead of the offset basis.
/// Distinct seeds give independent hash domains over the same bytes;
/// `memgaze-store`'s version-1 blobs are addressed by it.
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
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // Past one stripe, with a 4-byte word and single bytes left over.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        assert_eq!(xxh64(b"xxhash"), 0x32dd_3895_2c4b_c720);
        assert_eq!(xxh64_seeded(20141025, b"xxhash"), 0xb559_b98d_844e_0635);
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
