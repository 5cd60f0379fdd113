//! Golden byte identity of every wire format.
//!
//! The wire kit (`memgaze::model::wire`) replaced each format's private
//! varint, framing and checksum code; this test pins that no encoded
//! byte moved. Each digest is the FNV-1a-64 of the fixture as encoded
//! at commit c59f616 (the parent of the wire-kit change), and the
//! `c59f616*` files under `tests/fixtures/` were written by that
//! commit's encoders from the same `common` fixtures, so stores written
//! before the change stay readable. A digest changes only with a
//! deliberate format revision, which must also bump that format's
//! `*_VERSION`.
//!
//! The sealed formats moved their sum from FNV-1a to XXH64 together:
//! `MGZP` version 5, `MGZB` and `MGZC` version 2, each the body of the
//! version before under a new version number and sum, and the digests
//! of these formats are those versions'. `MGZP` version 5's encoder
//! wrote the `mgzp-v5.*` fixtures. A version-1 blob or catalog still
//! decodes, verified with FNV-1a; no older partial does: version 4
//! (`mgzp-v4.*`) differs from 5 only in its sum, version 3 (`mgzp-v3.*`)
//! also wrote a function's strided and irregular footprints as lists of
//! their own, and the version-2 partials of c59f616 predate both.

mod common;

use common::fixture;
use memgaze::analysis::{AnalysisConfig, PartialError, PartialReport};
use memgaze::model::wire::Sum;
use memgaze::model::{fnv1a64, fnv1a64_seeded, io, BlockSize};
use memgaze::store::blob::{decode_blob, CONTENT_HASH_SEED};
use memgaze::store::{Catalog, StoreConfig, TraceStore};
use std::path::{Path, PathBuf};

#[test]
fn encoders_are_byte_identical_to_the_parent_commit() {
    let (container, _) = common::mgzt_v2();
    let table: [(&str, Vec<u8>, u64); 8] = [
        ("MGZT v2 container", container, 0x73fe_1edc_8806_55d0),
        (
            "frame payload",
            common::frame_payload(0),
            0xf3bd_be7e_194f_168c,
        ),
        ("MGZP", common::mgzp(), 0x21d5_0f2c_f9ea_ba8f),
        (".mgzr", common::mgzr(), 0xa97a_57f8_a2b4_ac55),
        (
            "MGZB raw",
            common::mgzb(&common::raw_blob_payload()).1,
            0x4d98_209e_83e2_0415,
        ),
        (
            "MGZB lz",
            common::mgzb(&common::lz_blob_payload()).1,
            0x0129_cea5_79e1_2385,
        ),
        ("MGZC", common::mgzc(), 0x8974_cff4_238b_3a98),
        (
            "json escape",
            json_escaped().into_bytes(),
            0x7d79_1189_8778_efaf,
        ),
    ];
    let mut moved = Vec::new();
    for (name, bytes, want) in &table {
        let got = fnv1a64(bytes);
        if got != *want {
            moved.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "encoded bytes moved:\n{}",
        moved.join("\n")
    );
}

/// Table III's byte meters: the bytes the delta-varint sample codec
/// writes for the fixture traces, header and meta included. The
/// literals are the lengths of the monolithic `MGZT` v1 encodings the
/// meters measured before that layout was retired.
#[test]
fn table3_meters_count_the_parent_commits_bytes() {
    assert_eq!(io::sampled_size_bytes(&common::trace()), 1772);
    assert_eq!(io::full_size_bytes(&common::full_trace()), 484);
}

/// The store's result-cache keys: `TraceStore::config_hash` over the
/// fixture's side tables, at the default configuration and at a
/// non-default reuse block. A moved key orphans every cached result, so
/// these move only with a deliberate cache-format revision.
#[test]
fn result_cache_keys_are_the_parent_commits() {
    let sizes = [16u64, 64, 256];
    let default = common::config();
    let page = AnalysisConfig {
        reuse_block: BlockSize::OS_PAGE,
        ..default
    };
    let key = |cfg: &AnalysisConfig| {
        TraceStore::config_hash(cfg, &sizes, &common::annots(), &common::symbols())
    };
    assert_eq!(key(&default), 0x8207_bc32_aa9f_739b);
    assert_eq!(key(&page), 0x378b_db0c_898b_8176);
}

/// The one escaper over every class of character it treats specially.
fn json_escaped() -> String {
    memgaze::obs::json::escape("q\" b\\ nl\n tab\t cr\r bell\u{7} nul\u{0} é→")
}

/// The body between a sealed frame's version and its sum.
fn body(frame: &[u8]) -> &[u8] {
    &frame[6..frame.len() - 8]
}

/// A version-1 blob's content address: the seeded FNV-1a it was filed
/// under.
fn v1_address(payload: &[u8]) -> u64 {
    fnv1a64_seeded(CONTENT_HASH_SEED, payload)
}

/// The current versions moved nothing but the version number and the
/// sum: each body is byte for byte the body of the version before.
#[test]
fn the_xxh64_versions_keep_the_bodies_they_replace() {
    for (name, new, old, version) in [
        ("MGZP", common::mgzp(), fixture("mgzp-v4.mgzp"), 5u16),
        (".mgzr", common::mgzr(), fixture("mgzp-v4.mgzr"), 5),
        (
            "MGZB raw",
            common::mgzb(&common::raw_blob_payload()).1,
            fixture("c59f616-raw.blob"),
            2,
        ),
        (
            "MGZB lz",
            common::mgzb(&common::lz_blob_payload()).1,
            fixture("c59f616-lz.blob"),
            2,
        ),
    ] {
        assert_eq!(new[..4], old[..4], "{name}");
        assert_eq!(new[4..6], version.to_le_bytes(), "{name}");
        assert_eq!(old[4..6], (version - 1).to_le_bytes(), "{name}");
        assert_eq!(body(&new), body(&old), "{name}");
        assert_eq!(
            fnv1a64(&old[..old.len() - 8]).to_le_bytes(),
            old[old.len() - 8..]
        );
    }
}

#[test]
fn objects_written_by_the_parent_commit_still_decode() {
    // The version-1 catalog, field by field: everything a fresh scan
    // records, but its frame addresses and container checksum are the
    // FNV-1a values it was written with.
    let old = Catalog::decode(common::TRACE_ID, &fixture("c59f616.mgzc")).unwrap();
    let scan = common::catalog();
    let (container, index) = common::mgzt_v2();
    assert_eq!(old.sum, Sum::Fnv1a);
    assert_eq!(scan.sum, Sum::Xxh64);
    assert_eq!(old.trace_id, scan.trace_id);
    assert_eq!(old.summary_block, scan.summary_block);
    assert_eq!(old.header_bytes, scan.header_bytes);
    assert_eq!(old.trailer_bytes, scan.trailer_bytes);
    assert_eq!(old.container_len, scan.container_len);
    assert_eq!(old.container_checksum, fnv1a64(&container));
    assert_eq!(old.total_loads, scan.total_loads);
    assert_eq!(old.total_instrumented_loads, scan.total_instrumented_loads);
    assert_eq!(old.func_names, scan.func_names);
    assert_eq!(old.frames.len(), index.entries.len());
    for (i, (o, n)) in old.frames.iter().zip(&scan.frames).enumerate() {
        assert_eq!(o.hash, v1_address(&common::frame_payload(i)), "frame {i}");
        let readdressed = memgaze::store::FrameSummary {
            hash: n.hash,
            ..o.clone()
        };
        assert_eq!(&readdressed, n, "frame {i}");
    }

    // `MGZP` moved to version 5 with no decoder kept for versions 2 to
    // 4: the store reads such an entry as a miss and overwrites it.
    for (file, version) in [
        ("c59f616.mgzp", 2),
        ("c59f616.mgzr", 2),
        ("mgzp-v3.mgzp", 3),
        ("mgzp-v3.mgzr", 3),
        ("mgzp-v4.mgzp", 4),
        ("mgzp-v4.mgzr", 4),
    ] {
        let want = format!("version {version}, expected 5");
        assert!(
            matches!(
                PartialReport::decode(&fixture(file)),
                Err(PartialError::Corrupt { detail }) if detail.contains(&want)
            ),
            "{file}"
        );
    }

    // A version-1 blob verifies with FNV-1a, its seal and its address
    // alike: under the XXH64 address of its payload it is refused.
    for (file, payload) in [
        ("c59f616-raw.blob", common::raw_blob_payload()),
        ("c59f616-lz.blob", common::lz_blob_payload()),
    ] {
        let data = fixture(file);
        assert_eq!(
            decode_blob(v1_address(&payload), &data).unwrap(),
            payload,
            "{file}"
        );
        let (hash, _) = common::mgzb(&payload);
        assert!(decode_blob(hash, &data).is_err(), "{file}");
    }
}

#[test]
fn partials_written_by_the_version_5_encoder_decode() {
    let partial = PartialReport::decode(&fixture("mgzp-v5.mgzp")).unwrap();
    assert_eq!(partial, common::partial(0..1));
    let merged = PartialReport::decode(&fixture("mgzp-v5.mgzr")).unwrap();
    assert_eq!(merged.encode(), common::mgzr());
}

/// A `.mgzr` an older store left under a trace's result key is a miss:
/// the analysis runs again, answers the same and overwrites the entry.
#[test]
fn an_older_result_on_disk_is_a_miss_and_is_overwritten() {
    let root = std::env::temp_dir().join(format!("memgaze-golden-old-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
    let (container, index) = common::mgzt_v2();
    store
        .put(common::TRACE_ID, &container, &index, &common::symbols())
        .unwrap();
    let frames = index.entries.len();
    let analyze = || {
        store
            .analyze(
                common::TRACE_ID,
                &common::annots(),
                &common::symbols(),
                common::config(),
                &common::LOCALITY_SIZES,
            )
            .unwrap()
    };
    let cold = analyze();
    assert_eq!((cold.result_hits, cold.result_misses), (0, frames));
    let entries: Vec<_> = walk(&root.join("results"))
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "mgzr"))
        .collect();
    let [entry] = &entries[..] else {
        panic!("one result entry per trace, found {entries:?}");
    };
    let written = std::fs::read(entry).unwrap();
    assert_eq!(written[..6], *b"MGZP\x05\x00", "a version-5 partial");

    for old in ["c59f616.mgzr", "mgzp-v3.mgzr", "mgzp-v4.mgzr"] {
        std::fs::write(entry, fixture(old)).unwrap();
        let replanted = analyze();
        assert_eq!(
            (replanted.result_hits, replanted.result_misses),
            (0, frames),
            "{old}"
        );
        assert_eq!(replanted.report, cold.report, "{old}");
        assert_eq!(std::fs::read(entry).unwrap(), written, "{old}");
    }
    let warm = analyze();
    assert_eq!((warm.result_hits, warm.result_misses), (frames, 0));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A store written before XXH64 — a version-1 catalog over version-1
/// blobs — analyzes, reassembles and collects: each blob verifies its
/// seal and address with FNV-1a, the reassembly its checksum.
#[test]
fn a_store_written_before_xxh64_analyzes_reassembles_and_collects() {
    let root = std::env::temp_dir().join(format!("memgaze-golden-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
    let plant = |hash: u64, bytes: &[u8]| {
        let dir = root.join("blobs").join(format!("{:02x}", hash >> 56));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{hash:016x}.blob")), bytes).unwrap();
    };
    // The catalog's frames as c59f616 filed them: the current blob
    // under version 1 and an FNV-1a seal, at the FNV-1a address.
    let (container, index) = common::mgzt_v2();
    let frames = index.entries.len();
    for i in 0..frames {
        let payload = common::frame_payload(i);
        let (_, mut blob) = common::mgzb(&payload);
        let n = blob.len() - 8;
        blob[4..6].copy_from_slice(&1u16.to_le_bytes());
        let sum = fnv1a64(&blob[..n]);
        blob[n..].copy_from_slice(&sum.to_le_bytes());
        plant(v1_address(&payload), &blob);
    }
    // Two blobs no catalog references.
    for (file, payload) in [
        ("c59f616-raw.blob", common::raw_blob_payload()),
        ("c59f616-lz.blob", common::lz_blob_payload()),
    ] {
        plant(v1_address(&payload), &fixture(file));
    }
    std::fs::write(
        root.join("catalog")
            .join(format!("{}.mgzc", common::TRACE_ID)),
        fixture("c59f616.mgzc"),
    )
    .unwrap();

    let analyze = || {
        store
            .analyze(
                common::TRACE_ID,
                &common::annots(),
                &common::symbols(),
                common::config(),
                &common::LOCALITY_SIZES,
            )
            .unwrap()
    };
    let resident = memgaze::analysis::stream_resident_trace(
        &common::trace(),
        &common::annots(),
        &common::symbols(),
        common::config(),
        &common::LOCALITY_SIZES,
        common::SHARD_SAMPLES,
    );
    let cold = analyze();
    assert_eq!((cold.result_hits, cold.result_misses), (0, frames));
    assert_eq!(cold.report, resident);
    assert_eq!(store.get_container(common::TRACE_ID).unwrap(), container);

    let report = store.gc().unwrap();
    assert_eq!((report.blobs_removed, report.results_removed), (2, 0));
    let warm = analyze();
    assert_eq!((warm.result_hits, warm.result_misses), (frames, 0));
    assert_eq!(warm.report, resident);
    assert_eq!(store.get_container(common::TRACE_ID).unwrap(), container);
    let blobs = walk(&root.join("blobs"));
    assert_eq!(blobs.len(), frames, "{blobs:?}");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Every file under `dir`, recursively.
fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let path = e.unwrap().path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
