//! One fixed fixture per wire format, shared by the decoder torture
//! suite and the golden byte-identity test. Everything is built through
//! public encoders from fixed inputs, so the bytes depend on the codecs
//! alone.
#![allow(dead_code)]

use memgaze::analysis::{analyze_frames, AnalysisConfig, PartialReport};
use memgaze::model::{
    encode_sharded_indexed, Access, AuxAnnotations, BlockSize, FrameIndex, FullTrace, FunctionId,
    Ip, IpAnnot, LoadClass, Sample, SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::store::blob::{content_hash, encode_blob};
use memgaze::store::Catalog;

pub const SHARD_SAMPLES: usize = 3;
pub const LOCALITY_SIZES: [u64; 2] = [8, 32];
pub const TRACE_ID: &str = "golden";

/// A small trace with a strided and an irregular stream, so the list
/// codecs see steps of one block beside wide and negative deltas.
pub fn trace() -> SampledTrace {
    let mut t = SampledTrace::new(TraceMeta::new("wire-fixture", 10_000, 16 << 10));
    t.meta.total_loads = 70_000;
    t.meta.total_instrumented_loads = 700;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for s in 0..7u64 {
        let base = s * 10_000;
        let accesses: Vec<Access> = (0..40 + s * 3)
            .map(|i| {
                if i % 4 == 3 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Access::new(
                        0x500 + (i % 2) * 4,
                        0x20_0000 + (x >> 40) % 4096 * 8,
                        base + i,
                    )
                } else {
                    Access::new(0x400 + (i % 5) * 4, 0x10_0000 + (s * 64 + i) * 8, base + i)
                }
            })
            .collect();
        let n = accesses.len() as u64;
        t.push_sample(Sample::new(accesses, base + n)).unwrap();
    }
    t
}

pub fn full_trace() -> FullTrace {
    let mut f = FullTrace::new(TraceMeta::new("wire-fixture-full", 0, 0));
    f.dropped = 17;
    f.accesses = (0..150u64)
        .map(|i| Access::new(0x400 + (i % 3) * 4, 0x1000 + i * 8, i))
        .collect();
    f
}

pub fn annots() -> AuxAnnotations {
    let mut annots = AuxAnnotations::new();
    for k in 0..5u64 {
        let mut an = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        an.implied_const = 2;
        an.scale = 8;
        an.offset = -16;
        an.src_line = 40 + k as u32;
        annots.insert(Ip(0x400 + k * 4), an);
    }
    for k in 0..2u64 {
        let mut an = IpAnnot::of_class(LoadClass::Irregular, FunctionId(1));
        an.two_source = true;
        annots.insert(Ip(0x500 + k * 4), an);
    }
    annots
}

pub fn symbols() -> SymbolTable {
    let mut symbols = SymbolTable::new();
    symbols.add_function("stream_kernel", Ip(0x400), Ip(0x500), "stream.c");
    symbols.add_function("chase_kernel", Ip(0x500), Ip(0x600), "chase.c");
    symbols
}

pub fn config() -> AnalysisConfig {
    AnalysisConfig::default()
}

/// The v2 container and its index.
pub fn mgzt_v2() -> (Vec<u8>, FrameIndex) {
    encode_sharded_indexed(&trace(), SHARD_SAMPLES)
}

/// Frame `i`'s payload, as the store files it.
pub fn frame_payload(i: usize) -> Vec<u8> {
    let (container, index) = mgzt_v2();
    let e = index.entries[i];
    container[e.offset as usize..(e.offset + e.len) as usize].to_vec()
}

/// The partial over `frames` of the fixture container.
pub fn partial(frames: std::ops::Range<usize>) -> PartialReport {
    let (container, index) = mgzt_v2();
    analyze_frames(
        &container,
        &index,
        frames,
        &annots(),
        &symbols(),
        config(),
        &LOCALITY_SIZES,
    )
    .unwrap()
}

/// One frame's partial: the unit a serve session publishes and folds
/// for an upload of one frame.
pub fn mgzp() -> Vec<u8> {
    partial(0..1).encode()
}

/// The exact fold of every frame's partial: the shape of a serve seal
/// over uploads of one frame each, and the same trace's fold a store
/// `.mgzr` entry holds.
pub fn mgzr() -> Vec<u8> {
    let n = mgzt_v2().1.entries.len();
    let cfg = config();
    PartialReport::merge_many(
        (0..n).map(|i| partial(i..i + 1)).collect(),
        cfg.footprint_block,
        cfg.reuse_block,
        &LOCALITY_SIZES,
    )
    .unwrap()
    .encode()
}

/// An incompressible payload, so the blob keeps the raw encoding.
pub fn raw_blob_payload() -> Vec<u8> {
    (0u32..48)
        .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
        .collect()
}

/// A frame payload repeated, so the blob takes the LZ encoding with
/// literals, long matches and an overlapping match.
pub fn lz_blob_payload() -> Vec<u8> {
    let mut p = frame_payload(0);
    p.extend_from_slice(&frame_payload(0));
    p.extend_from_slice(&[7u8; 300]);
    p
}

/// `(content hash, framed blob)`.
pub fn mgzb(payload: &[u8]) -> (u64, Vec<u8>) {
    (content_hash(payload), encode_blob(payload))
}

pub fn catalog() -> Catalog {
    let (container, index) = mgzt_v2();
    Catalog::scan(
        TRACE_ID,
        &container,
        &index,
        &symbols(),
        BlockSize::CACHE_LINE,
    )
    .unwrap()
}

pub fn mgzc() -> Vec<u8> {
    catalog().encode()
}

/// A file under `tests/fixtures/`.
pub fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// A bench-emitter-shaped document: nesting, arrays, escapes, floats.
pub fn json() -> String {
    r#"{"bench":"wire \"kit\"\n","host_cpus":2,"ratio":-1.5e-3,"ok":true,"none":null,
 "variants":[{"name":"aé","bins":[1,2,18446744073709551615]},{"name":"b","bins":[]}]}"#
        .to_string()
}
