//! Golden byte identity of every wire format.
//!
//! The wire kit (`memgaze::model::wire`) replaced each format's private
//! varint, framing and checksum code; this test pins that no encoded
//! byte moved. Each digest is the FNV-1a-64 of the fixture as encoded
//! at commit c59f616 (the parent of the wire-kit change), and the files
//! under `tests/fixtures/` were written by that commit's encoders from
//! the same `common` fixtures, so stores and result caches written
//! before the change stay readable. A digest changes only with a
//! deliberate format revision, which must also bump that format's
//! `*_VERSION`.

mod common;

use memgaze::analysis::PartialReport;
use memgaze::model::{fnv1a64, io, FrameIndex};
use memgaze::store::blob::decode_blob;
use memgaze::store::Catalog;

#[test]
fn encoders_are_byte_identical_to_the_parent_commit() {
    let (container, _) = common::mgzt_v2();
    let table: [(&str, Vec<u8>, u64); 12] = [
        ("MGZT v2 container", container, 0x73fe_1edc_8806_55d0),
        (
            "frame payload",
            common::frame_payload(0),
            0xf3bd_be7e_194f_168c,
        ),
        ("MGZX", common::mgzx(), 0x1535_1188_e7cb_b7cf),
        ("MGZP", common::mgzp(), 0xbe36_3839_a3f4_e57a),
        (".mgzr", common::mgzr(), 0x4236_7fab_5bf6_9c87),
        ("MGZS", common::mgzs(), 0x7897_a531_099f_9c36),
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
        ("MGZW", common::mgzw(), 0x0467_158f_c767_2c11),
        ("MGZQ", common::mgzq(), 0x204d_35f6_021c_00f6),
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

    let index = FrameIndex::decode(&fixture("c59f616.mgzx")).unwrap();
    assert_eq!(index, common::mgzt_v2().1);

    let partial = PartialReport::decode(&fixture("c59f616.mgzp")).unwrap();
    assert_eq!(partial, common::partial(0..1));
    let merged = PartialReport::decode(&fixture("c59f616.mgzr")).unwrap();
    assert_eq!(merged.encode(), common::mgzr());

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
