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
//! `*_VERSION`: the `MGZP` and `.mgzr` digests are those of `MGZP`
//! version 4, whose encoder wrote the `mgzp-v4.*` fixtures. Version 4
//! writes a function's footprint as one list of `(block delta, class
//! mask)` entries where version 3 wrote the footprint and a strided and
//! an irregular list, each of those two a back-reference to the
//! footprint when equal to it; neither the version-3 partials
//! (`mgzp-v3.*`) nor the version-2 partials of c59f616 decode.

mod common;

use memgaze::analysis::{AnalysisConfig, PartialError, PartialReport};
use memgaze::model::{fnv1a64, io, BlockSize};
use memgaze::store::blob::decode_blob;
use memgaze::store::{Catalog, StoreConfig, TraceStore};

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
        ("MGZP", common::mgzp(), 0x7196_80d0_124b_277f),
        (".mgzr", common::mgzr(), 0xf7f3_921a_e2ad_db81),
        (
            "MGZB raw",
            common::mgzb(&common::raw_blob_payload()).1,
            0xa46f_8ecd_930b_4ef7,
        ),
        (
            "MGZB lz",
            common::mgzb(&common::lz_blob_payload()).1,
            0xf7c5_ac0a_e014_6f0e,
        ),
        ("MGZC", common::mgzc(), 0x1827_fb3c_7a28_c9ee),
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

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn objects_written_by_the_parent_commit_still_decode() {
    let catalog = Catalog::decode(common::TRACE_ID, &fixture("c59f616.mgzc")).unwrap();
    assert_eq!(catalog, common::catalog());

    // `MGZP` moved to version 4 with no decoder kept for versions 2 and
    // 3: the store reads such an entry as a miss and overwrites it.
    for (file, version) in [
        ("c59f616.mgzp", 2),
        ("c59f616.mgzr", 2),
        ("mgzp-v3.mgzp", 3),
        ("mgzp-v3.mgzr", 3),
    ] {
        let want = format!("version {version}, expected 4");
        assert!(
            matches!(
                PartialReport::decode(&fixture(file)),
                Err(PartialError::Corrupt { detail }) if detail.contains(&want)
            ),
            "{file}"
        );
    }

    for (file, payload) in [
        ("c59f616-raw.blob", common::raw_blob_payload()),
        ("c59f616-lz.blob", common::lz_blob_payload()),
    ] {
        let (hash, _) = common::mgzb(&payload);
        assert_eq!(
            decode_blob(hash, &fixture(file)).unwrap(),
            payload,
            "{file}"
        );
    }
}

#[test]
fn partials_written_by_the_version_4_encoder_decode() {
    let partial = PartialReport::decode(&fixture("mgzp-v4.mgzp")).unwrap();
    assert_eq!(partial, common::partial(0..1));
    let merged = PartialReport::decode(&fixture("mgzp-v4.mgzr")).unwrap();
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
    assert_eq!(written[..6], *b"MGZP\x04\x00", "a version-4 partial");

    for old in ["c59f616.mgzr", "mgzp-v3.mgzr"] {
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

/// Every file under `dir`, recursively.
fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
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
