//! General-purpose LZ-style block compression for shard blobs.
//!
//! Shard frame payloads are already delta-chained varints (the MGZT
//! codec), but real traces still carry long-range redundancy the delta
//! chain cannot see: repeated ip sets across samples, periodic address
//! walks, identical sample shapes. A byte-oriented LZ77 pass on top
//! picks that up cheaply, and — unlike a trace-aware recoding — stays
//! content-agnostic, so the blob store can hold any bytes.
//!
//! The format is a classic greedy LZ with varint tokens, chosen for
//! decode simplicity over ratio (this is a storage tier, not an archive
//! format):
//!
//! ```text
//! stream   := raw_len varint | sequence*
//! sequence := lit_len varint | literal bytes
//!           | (match only if output still short of raw_len)
//!             (match_len - MIN_MATCH) varint | distance varint (>= 1)
//! ```
//!
//! The decoder stops exactly when `raw_len` bytes have been produced,
//! so no terminator token is needed; a final all-literal tail simply
//! omits the match. Matches may overlap their own output (distance <
//! match length), giving RLE for free. The encoder finds matches with a
//! single-probe hash table over 4-byte windows — the LZ4 strategy —
//! so compression is one pass, O(n), with a fixed 64 KiB table.
//!
//! [`compress`] never fails; [`decompress`] returns a typed detail
//! string for every malformation (truncation, bad distance, output
//! overrun, trailing bytes) and never panics — the blob layer maps
//! those into [`StoreError::CorruptBlob`](crate::StoreError::CorruptBlob).

use memgaze_model::wire::{grow_toward, put_varint, Reader, WireError};

/// Matches shorter than this cost more to encode than to emit literally.
const MIN_MATCH: usize = 4;
/// The output buffer starts at this multiple of the compressed length
/// (or the declared length, if smaller) and from there only grows as
/// bytes are actually produced.
const INITIAL_RESERVE_FACTOR: usize = 4;
/// log2 of the match hash table size.
const HASH_BITS: u32 = 14;
/// Sentinel for an empty hash-table slot.
const NO_POS: u32 = u32::MAX;

/// Hash of the 4-byte window at the start of `bytes`, Fibonacci-style
/// multiplicative; below `1 << HASH_BITS`. Callers pass at least 4
/// bytes. A shorter slice would hash as 0, which costs only a missed
/// match: every candidate is compared byte for byte before use.
#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = bytes.first_chunk().map_or(0, |w| u32::from_le_bytes(*w));
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compress `src`. The output always decodes back to `src` exactly; it
/// is *usually* smaller, but incompressible input costs a few bytes of
/// framing overhead — callers compare lengths and keep the raw form
/// when compression does not pay (see the blob encoder).
// The encoder loop indexes unchecked, because it is `store.put`'s hot
// path and its guards bound every index: `i + MIN_MATCH <= src.len()`
// for the window at `i`, `cand < i` for the candidate, `i + len <
// src.len()` while a match extends, `lit_start <= i` for the literals,
// and `head` is indexed by `hash4`, which is below its length.
#[allow(clippy::indexing_slicing)]
pub(crate) fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    put_varint(&mut out, src.len() as u64);
    if src.len() < MIN_MATCH {
        if !src.is_empty() {
            put_varint(&mut out, src.len() as u64);
            out.extend_from_slice(src);
        }
        return out;
    }
    let mut head = vec![NO_POS; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    // The last window whose 4 bytes fit entirely in `src`.
    let last_window = src.len() - MIN_MATCH;
    while i <= last_window {
        let h = hash4(&src[i..]);
        let cand = head[h];
        head[h] = i as u32;
        let matched = cand != NO_POS && {
            let c = cand as usize;
            src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH]
        };
        if !matched {
            i += 1;
            continue;
        }
        let cand = cand as usize;
        // Extend the match greedily past the mandatory 4 bytes.
        let mut len = MIN_MATCH;
        while i + len < src.len() && src[cand + len] == src[i + len] {
            len += 1;
        }
        put_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&src[lit_start..i]);
        put_varint(&mut out, (len - MIN_MATCH) as u64);
        put_varint(&mut out, (i - cand) as u64);
        // Seed the table inside the match so later data can still find
        // these positions; a sparse stride keeps long matches O(1)-ish
        // without giving up short-range repeats.
        let stride = (len / 16).max(1);
        let mut p = i + 1;
        while p + MIN_MATCH <= src.len() && p < i + len {
            head[hash4(&src[p..])] = p as u32;
            p += stride;
        }
        i += len;
        lit_start = i;
    }
    // Input ending exactly at a match needs no empty trailing literal
    // run — the decoder stops at the declared length.
    if lit_start < src.len() {
        put_varint(&mut out, (src.len() - lit_start) as u64);
        out.extend_from_slice(&src[lit_start..]);
    }
    out
}

/// Decompress a [`compress`] stream, checking it declares exactly
/// `expected_len` bytes. Every malformation is a typed detail string
/// and nothing panics. The declared length is checked against
/// `expected_len` but neither is trusted with an allocation: the output
/// starts at a small multiple of the input and grows, to the declared
/// length at most, only by what literals present in the input or matches
/// over bytes already produced justify.
pub(crate) fn decompress(src: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
    let wire = |e: WireError| e.to_string();
    let mut r = Reader::new(src);
    let raw_len = r.usize("raw length").map_err(wire)?;
    if raw_len != expected_len {
        return Err(format!(
            "stream declares {raw_len} raw bytes, catalog expects {expected_len}"
        ));
    }
    let mut out = Vec::with_capacity(raw_len.min(src.len().saturating_mul(INITIAL_RESERVE_FACTOR)));
    while out.len() < raw_len {
        let lit_len = r.usize("literal length").map_err(wire)?;
        if lit_len > raw_len - out.len() {
            return Err(format!(
                "literal run of {lit_len} overruns output ({} of {raw_len} produced)",
                out.len()
            ));
        }
        let lits = r.take(lit_len, "literal run").map_err(wire)?;
        grow_toward(&mut out, lit_len, raw_len);
        out.extend_from_slice(lits);
        if out.len() == raw_len {
            break;
        }
        let match_len = r
            .usize("match length")
            .map_err(wire)?
            .checked_add(MIN_MATCH)
            .filter(|&m| m <= raw_len - out.len());
        let dist = r.usize("match distance").map_err(wire)?;
        if dist == 0 || dist > out.len() {
            return Err(format!(
                "match distance {dist} with only {} bytes produced",
                out.len()
            ));
        }
        let Some(match_len) = match_len else {
            return Err(format!(
                "match overruns output ({} of {raw_len} produced)",
                out.len()
            ));
        };
        // An overlapping match (dist < len) must see the bytes it just
        // produced: copy from the match start in steps no longer than
        // what has been produced since, which keeps every step a plain
        // non-overlapping copy of the period repeated so far.
        let start = out.len() - dist;
        let mut left = match_len;
        while left > 0 {
            let step = left.min(out.len() - start);
            grow_toward(&mut out, step, raw_len);
            out.extend_from_within(start..start + step);
            left -= step;
        }
    }
    r.finish("stream").map_err(wire)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let back = decompress(&c, data.len()).expect("decompress");
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 10_000]);
        roundtrip(b"abcabcabcabcabcabcabcabc");
        let mixed: Vec<u8> = (0u32..5000)
            .map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8 ^ (i as u8 & 0x3f))
            .collect();
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_input_actually_shrinks() {
        let data: Vec<u8> = b"sample-frame-payload-"
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "8 KiB of period-21 text should compress well, got {} bytes",
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_match_is_rle() {
        let mut data = vec![7u8; 4096];
        data.extend_from_slice(b"tail");
        let c = compress(&data);
        assert!(
            c.len() < 64,
            "run-length input should be tiny, got {}",
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let good = compress(b"abcdabcdabcdabcd-abcdabcd");
        // Wrong expected length.
        assert!(decompress(&good, 7).unwrap_err().contains("expects 7"));
        // Truncations at every prefix either error or cannot silently
        // produce the full output.
        for cut in 0..good.len() {
            match decompress(&good[..cut], 25) {
                Ok(out) => panic!("truncated prefix of {cut} bytes decoded to {out:?}"),
                Err(detail) => assert!(!detail.is_empty()),
            }
        }
        // A match distance pointing before the start of output.
        let mut bad = Vec::new();
        put_varint(&mut bad, 8); // raw_len
        put_varint(&mut bad, 1); // one literal
        bad.push(b'x');
        put_varint(&mut bad, 0); // match_len = MIN_MATCH
        put_varint(&mut bad, 5); // distance 5 > 1 byte produced
        assert!(decompress(&bad, 8).unwrap_err().contains("distance"));
        // Trailing garbage after a complete stream.
        let mut trailing = compress(b"done");
        trailing.push(0xff);
        assert!(decompress(&trailing, 4).unwrap_err().contains("trailing"));
    }

    #[test]
    fn zero_distance_is_rejected() {
        let mut bad = Vec::new();
        put_varint(&mut bad, 9);
        put_varint(&mut bad, 4);
        bad.extend_from_slice(b"abcd");
        put_varint(&mut bad, 1); // match_len 5
        put_varint(&mut bad, 0); // distance 0
        assert!(decompress(&bad, 9).unwrap_err().contains("distance 0"));
    }
}
