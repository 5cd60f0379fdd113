//! Property tests of the content-addressed trace store: byte-identity
//! of put/get under block compression, catalog rebuild equivalence,
//! bit-identical cached re-analysis, typed (never panicking)
//! corruption handling, and sealed frames of every length that refuse
//! each flipped bit and each cut.

use memgaze::analysis::{stream_resident_trace, AnalysisConfig, PartialReport, StreamingAnalyzer};
use memgaze::model::{
    encode_sharded_indexed, Access, AuxAnnotations, BlockSize, Ip, Sample, SampledTrace,
    SymbolTable, TraceMeta,
};
use memgaze::store::blob::{content_hash, decode_blob, encode_blob};
use memgaze::store::{Catalog, StoreConfig, StoreError, TraceStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh store root per proptest case; removed by the case on success
/// (a failing case leaves its directory behind for inspection).
fn fresh_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "memgaze-store-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn symbols() -> SymbolTable {
    let mut sy = SymbolTable::new();
    sy.add_function("alpha", Ip(0x400), Ip(0x410), "a.c");
    sy.add_function("beta", Ip(0x410), Ip(0x420), "b.c");
    sy
}

/// Random sampled traces: a mix of unique and repeated samples so some
/// cases produce duplicate (dedup-able, highly compressible) frames.
fn arb_trace() -> impl Strategy<Value = SampledTrace> {
    (
        prop::collection::vec(
            (
                1usize..24,
                0u64..5,
                0u64..64,
                prop_oneof![Just(false), Just(true)],
            ),
            1..10,
        ),
        1u64..4,
    )
        .prop_map(|(shapes, repeat)| {
            let mut t = SampledTrace::new(TraceMeta::new("store-prop", 10_000, 16 << 10));
            let mut time = 0u64;
            let mut push = |w: usize, ip_salt: u64, addr_salt: u64, time: &mut u64| {
                let accesses: Vec<Access> = (0..w)
                    .map(|i| {
                        Access::new(
                            0x400 + ((i as u64 + ip_salt) % 8) * 4,
                            0x10_0000 + ((i as u64 * 3 + addr_salt) % 32) * 64,
                            *time + i as u64,
                        )
                    })
                    .collect();
                *time += w as u64 + 1;
                t.push_sample(Sample::new(accesses, *time)).unwrap();
            };
            for &(w, ip_salt, addr_salt, repeated) in &shapes {
                push(w, ip_salt, addr_salt, &mut time);
                if repeated {
                    for _ in 0..repeat {
                        push(w, ip_salt, addr_salt, &mut time);
                    }
                }
            }
            t.meta.total_loads = 50_000;
            t.meta.total_instrumented_loads = 500;
            t
        })
}

fn arb_block() -> impl Strategy<Value = BlockSize> {
    prop_oneof![Just(BlockSize::WORD), Just(BlockSize::CACHE_LINE)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `get` after `put` reproduces the container byte-for-byte, through
    /// whatever mix of raw and block-compressed blobs the encoder chose;
    /// re-putting is pure dedup.
    #[test]
    fn put_get_is_byte_identical(trace in arb_trace(), shard in 1usize..5) {
        let root = fresh_root("roundtrip");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let (container, index) = encode_sharded_indexed(&trace, shard);
        let sy = symbols();
        let receipt = store.put("t", &container, &index, &sy).unwrap();
        prop_assert_eq!(receipt.frames, index.entries.len());
        prop_assert_eq!(&store.get_container("t").unwrap(), &container);
        let again = store.put("t", &container, &index, &sy).unwrap();
        prop_assert_eq!(again.new_blobs, 0);
        prop_assert_eq!(again.dedup_blobs + again.new_blobs > 0, receipt.frames > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The persisted catalog decodes back to exactly what a fresh scan
    /// of the same container computes.
    #[test]
    fn catalog_rebuild_matches_fresh_scan(trace in arb_trace(), shard in 1usize..5) {
        let root = fresh_root("catalog");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let (container, index) = encode_sharded_indexed(&trace, shard);
        let sy = symbols();
        store.put("t", &container, &index, &sy).unwrap();
        let stored = store.catalog("t").unwrap();
        let fresh = Catalog::scan("t", &container, &index, &sy, store.summary_block()).unwrap();
        prop_assert_eq!(stored, fresh);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The per-frame result-cache path is bit-identical to the uncached
    /// path — and both to the resident streaming analyzer — for random
    /// trace x shard x analyzer config.
    #[test]
    fn cached_analysis_is_bit_identical(
        trace in arb_trace(),
        shard in 1usize..5,
        footprint in arb_block(),
        reuse in arb_block(),
        sizes in prop::collection::vec(prop_oneof![Just(8u64), Just(16), Just(64), Just(256)], 0..3),
    ) {
        let root = fresh_root("cached");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let (container, index) = encode_sharded_indexed(&trace, shard);
        let sy = symbols();
        let annots = AuxAnnotations::new();
        store.put("t", &container, &index, &sy).unwrap();
        let cfg = AnalysisConfig {
            footprint_block: footprint,
            reuse_block: reuse,
            ..AnalysisConfig::default()
        };
        let cold = store.analyze("t", &annots, &sy, cfg, &sizes).unwrap();
        prop_assert_eq!(cold.result_hits, 0);
        prop_assert_eq!(cold.result_misses, index.entries.len());
        let warm = store.analyze("t", &annots, &sy, cfg, &sizes).unwrap();
        prop_assert_eq!(warm.result_misses, 0);
        prop_assert_eq!(warm.result_hits, index.entries.len());
        prop_assert_eq!(&cold.report, &warm.report);
        let resident = stream_resident_trace(&trace, &annots, &sy, cfg, &sizes, shard);
        prop_assert_eq!(&cold.report, &resident);
        // A different config must not share the cache namespace.
        let other = AnalysisConfig {
            footprint_block: reuse,
            reuse_block: footprint,
            ..AnalysisConfig::default()
        };
        if other.footprint_block != cfg.footprint_block
            || other.reuse_block != cfg.reuse_block
        {
            let fresh = store.analyze("t", &annots, &sy, other, &sizes).unwrap();
            prop_assert_eq!(fresh.result_hits, 0);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A bit flipped anywhere in a blob is a typed [`StoreError`], and a
    /// catalog whose recorded totals drifted from the blobs is a typed
    /// stale-catalog error — never a panic, never silent data.
    #[test]
    fn corruption_and_staleness_are_typed(
        trace in arb_trace(),
        shard in 1usize..5,
        victim_ppm in 0u64..1_000_000,
        bit in 0u32..8,
    ) {
        let root = fresh_root("corrupt");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let (container, index) = encode_sharded_indexed(&trace, shard);
        let sy = symbols();
        store.put("t", &container, &index, &sy).unwrap();
        let catalog = store.catalog("t").unwrap();

        // Flip one bit of one blob.
        let f = &catalog.frames[0];
        let hex = format!("{:016x}", f.hash);
        let blob_path = root
            .join("blobs")
            .join(&hex[..2])
            .join(format!("{hex}.blob"));
        let mut bytes = std::fs::read(&blob_path).unwrap();
        let pos = ((bytes.len() as u64 - 1) * victim_ppm / 1_000_000) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&blob_path, &bytes).unwrap();
        match store.get_blob(f.hash) {
            Err(StoreError::CorruptBlob { hash, .. }) => prop_assert_eq!(hash, f.hash),
            other => prop_assert!(false, "expected CorruptBlob, got {:?}", other.map(|_| ())),
        }
        // Restore the blob, then make the catalog stale instead.
        let payload = &container
            [index.entries[0].offset as usize..(index.entries[0].offset + index.entries[0].len) as usize];
        prop_assert_eq!(f.len as usize, payload.len());
        let mut stale = catalog.clone();
        stale.container_len += 1;
        std::fs::write(root.join("catalog").join("t.mgzc"), stale.encode()).unwrap();
        // Un-corrupt the blob so only the catalog is wrong.
        bytes[pos] ^= 1 << bit;
        std::fs::write(&blob_path, &bytes).unwrap();
        match store.get_container("t") {
            Err(StoreError::StaleCatalog { .. }) => {}
            other => prop_assert!(false, "expected StaleCatalog, got {:?}", other.map(|_| ())),
        }
        // A truncated catalog is a typed decode error.
        let encoded = catalog.encode();
        std::fs::write(
            root.join("catalog").join("t.mgzc"),
            &encoded[..encoded.len() / 2],
        )
        .unwrap();
        match store.catalog("t") {
            Err(StoreError::CorruptCatalog { .. }) => {}
            other => prop_assert!(false, "expected CorruptCatalog, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Every proper prefix of `frame`, and `frame` with each of its bits
/// flipped in turn.
fn damaged(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..frame.len()).map(|cut| frame[..cut].to_vec());
    let flips = (0..frame.len() * 8).map(|bit| {
        let mut bytes = frame.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        bytes
    });
    cuts.chain(flips)
}

/// A current-version frame of each sealed format whose length moves
/// one byte per byte of `fill`: an `MGZB` blob of `fill`, an `MGZC`
/// catalog whose trace id and an `MGZP` partial whose one function's
/// name are `fill` spelled in letters.
fn sealed_frames(fill: &[u8]) -> [Vec<u8>; 3] {
    let text: String = fill.iter().map(|b| char::from(b'a' + b % 26)).collect();
    let empty = SampledTrace::new(TraceMeta::new("sealed", 1000, 4096));
    let (container, index) = encode_sharded_indexed(&empty, 4);
    let catalog = Catalog::scan(
        &text,
        &container,
        &index,
        &SymbolTable::new(),
        BlockSize::WORD,
    )
    .unwrap()
    .encode();
    let mut sy = SymbolTable::new();
    sy.add_function(&text, Ip(0x400), Ip(0x410), "f.c");
    let annots = AuxAnnotations::new();
    let mut sa = StreamingAnalyzer::new(&annots, &sy, AnalysisConfig::default());
    let accesses = (0..3u64)
        .map(|i| Access::new(0x400, 0x1000 + i * 8, i))
        .collect();
    sa.ingest_shard(&[Sample::new(accesses, 3)]);
    [encode_blob(fill), catalog, sa.into_partial().encode()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Sealed `MGZB`, `MGZC` and `MGZP` frames over every prefix of 200
    /// random bytes, so their lengths cross XXH64's 32-byte stripes and
    /// its 8-, 4- and 1-byte tails: each frame decodes, and each cut and
    /// each flipped bit of it is that format's typed error.
    #[test]
    fn sealed_frames_refuse_every_flip_and_cut(
        bytes in prop::collection::vec(0u8..=255, 200..201),
    ) {
        for len in 0..=bytes.len() {
            let fill = &bytes[..len];
            let hash = content_hash(fill);
            let [blob, catalog, partial] = sealed_frames(fill);
            prop_assert_eq!(decode_blob(hash, &blob).unwrap(), fill);
            for bad in damaged(&blob) {
                let refused =
                    matches!(decode_blob(hash, &bad), Err(StoreError::CorruptBlob { .. }));
                prop_assert!(refused, "MGZB of {} bytes", len);
            }
            prop_assert!(Catalog::decode("t", &catalog).is_ok());
            for bad in damaged(&catalog) {
                let refused = matches!(
                    Catalog::decode("t", &bad),
                    Err(StoreError::CorruptCatalog { .. })
                );
                prop_assert!(refused, "MGZC with a {}-byte id", len);
            }
            prop_assert!(PartialReport::decode(&partial).is_ok());
            for bad in damaged(&partial) {
                prop_assert!(
                    PartialReport::decode(&bad).is_err(),
                    "MGZP with a {}-byte name",
                    len
                );
            }
        }
    }
}
