//! Content-addressed blob framing.
//!
//! A blob is one shard-frame payload (the MGZT frame bytes past the
//! length varint), stored under its *content hash* — a seeded FNV-1a-64
//! of the uncompressed payload. Identical frames across traces (or
//! across re-puts of the same trace) therefore share one file, which is
//! what makes the store deduplicating.
//!
//! On-disk framing:
//!
//! ```text
//! magic "MGZB" | version u16 = 1 | enc u8 (0 raw, 1 lz)
//! | raw_len varint | payload bytes | fnv1a64(all preceding bytes) u64 LE
//! ```
//!
//! The trailing checksum covers the *encoded* bytes, so media rot is
//! caught before any decompression runs; after decoding, the content
//! hash of the recovered payload is re-checked against the address the
//! blob was fetched by, so a blob filed under the wrong name can never
//! be returned. Compression is attempted on every put but kept only
//! when it shrinks the payload — `enc = 0` stores the raw bytes, making
//! incompressible frames cost just the 16-byte frame + 8-byte checksum.

use crate::compress;
use crate::error::StoreError;
use memgaze_model::fnv1a64_seeded;
use memgaze_model::wire::{self, put_varint, WireError};

const BLOB_MAGIC: &[u8; 4] = b"MGZB";
const BLOB_VERSION: u16 = 1;
const ENC_RAW: u8 = 0;
const ENC_LZ: u8 = 1;

/// Seed for content addresses. Deliberately distinct from the plain
/// FNV offset basis so a blob's content hash never collides by
/// construction with the frame checksums the [`memgaze_model::FrameIndex`]
/// records for the same bytes — the two namespaces stay disjoint.
pub const CONTENT_HASH_SEED: u64 = 0x6d67_7a73_746f_7265; // "mgzstore"

/// Content address of a frame payload.
#[inline]
pub fn content_hash(payload: &[u8]) -> u64 {
    fnv1a64_seeded(CONTENT_HASH_SEED, payload)
}

/// Frame a payload for disk: compress when it pays, checksum always.
pub fn encode_blob(payload: &[u8]) -> Vec<u8> {
    let compressed = compress::compress(payload);
    let (enc, body): (u8, &[u8]) = if compressed.len() < payload.len() {
        (ENC_LZ, &compressed)
    } else {
        (ENC_RAW, payload)
    };
    let mut out = Vec::with_capacity(body.len() + 32);
    wire::put_header(&mut out, BLOB_MAGIC, BLOB_VERSION);
    out.push(enc);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(body);
    wire::seal(&mut out, 0);
    out
}

fn corrupt(hash: u64, detail: impl Into<String>) -> StoreError {
    StoreError::CorruptBlob {
        hash,
        detail: detail.into(),
    }
}

/// Decode a blob fetched by content address `hash`, verifying the
/// framing checksum, the declared encoding, and finally that the
/// recovered payload really hashes to `hash`.
pub fn decode_blob(hash: u64, data: &[u8]) -> Result<Vec<u8>, StoreError> {
    let wire = |e: WireError| corrupt(hash, e.to_string());
    let mut r = wire::open(data, BLOB_MAGIC, BLOB_VERSION, "blob").map_err(wire)?;
    let enc = r.u8("encoding").map_err(wire)?;
    let raw_len = r.usize("raw length").map_err(wire)?;
    let body = r.rest();
    let payload = match enc {
        ENC_RAW => {
            if body.len() != raw_len {
                return Err(corrupt(
                    hash,
                    format!("raw blob holds {} bytes, declares {raw_len}", body.len()),
                ));
            }
            body.to_vec()
        }
        ENC_LZ => compress::decompress(body, raw_len).map_err(|detail| corrupt(hash, detail))?,
        other => return Err(corrupt(hash, format!("unknown encoding {other}"))),
    };
    let got = content_hash(&payload);
    if got != hash {
        return Err(corrupt(
            hash,
            format!("payload hashes to {got:#018x}, filed under {hash:#018x}"),
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::fnv1a64;

    #[test]
    fn roundtrip_compressible_and_not() {
        let reps: Vec<u8> = b"frame ".iter().copied().cycle().take(4096).collect();
        let rand: Vec<u8> = (0u32..1024)
            .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
            .collect();
        for payload in [&reps[..], &rand[..], b"", b"x"] {
            let h = content_hash(payload);
            let framed = encode_blob(payload);
            assert_eq!(decode_blob(h, &framed).unwrap(), payload);
        }
        // The repetitive payload actually used the compressed encoding.
        let framed = encode_blob(&reps);
        assert!(framed.len() < reps.len() / 2);
    }

    #[test]
    fn content_hash_disjoint_from_frame_checksum() {
        let payload = b"same bytes, two namespaces";
        assert_ne!(content_hash(payload), fnv1a64(payload));
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let payload: Vec<u8> = b"abcdabcdabcd".repeat(64);
        let h = content_hash(&payload);
        let framed = encode_blob(&payload);
        // Flip a byte anywhere: the framing checksum catches it.
        for at in [0usize, 5, 7, framed.len() / 2, framed.len() - 1] {
            let mut bad = framed.clone();
            bad[at] ^= 0x01;
            assert!(
                matches!(decode_blob(h, &bad), Err(StoreError::CorruptBlob { hash, .. }) if hash == h),
                "flip at {at} must be CorruptBlob"
            );
        }
        // Truncation too.
        assert!(matches!(
            decode_blob(h, &framed[..framed.len() - 3]),
            Err(StoreError::CorruptBlob { .. })
        ));
        // A *valid* blob fetched under the wrong address is rejected by
        // the content-hash recheck.
        assert!(matches!(
            decode_blob(h ^ 1, &framed),
            Err(StoreError::CorruptBlob { .. })
        ));
    }
}
