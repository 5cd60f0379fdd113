//! Golden identity of the static toolchain's output.
//!
//! Each digest is the FNV-1a-64 of `format!("{:?}")` of what
//! `Instrumenter::instrument` and `lint_module` return, folded over a
//! group of modules, as produced at commit 5cdd8ac (the parent of the
//! change that moved classification, plan, rewrite and checker from
//! address-keyed trees to address-ordered tables). The rewritten module,
//! every annotation, source-map and `ptw_map` entry, the statistics and
//! every diagnostic are in those strings, so a digest moves only when
//! the toolchain's answer does.

use memgaze::instrument::{lint_module, InstrumentConfig, Instrumenter};
use memgaze::isa::codegen::OptLevel;
use memgaze::isa::LoadModule;
use memgaze::model::Fnv64;
use memgaze::workloads::modules::synthetic_module;
use memgaze::workloads::ubench;

fn groups() -> Vec<(&'static str, Vec<LoadModule>)> {
    let suite = |opt| ubench::suite(opt).iter().map(|b| b.module()).collect();
    vec![
        ("ubench O0", suite(OptLevel::O0)),
        ("ubench O3", suite(OptLevel::O3)),
        (
            "synthetic",
            [(4, 9), (16, 12), (64, 9)]
                .iter()
                .map(|&(procs, loads)| synthetic_module(procs, loads))
                .collect(),
        ),
    ]
}

fn configs() -> [(&'static str, InstrumentConfig); 4] {
    [
        ("default", InstrumentConfig::default()),
        ("eliding", InstrumentConfig::eliding()),
        ("uncompressed", InstrumentConfig::uncompressed()),
        ("roi kernel", InstrumentConfig::with_roi(["kernel"])),
    ]
}

/// `(group, config, instrument digest, lint digest)` at the parent.
const GOLDEN: [(&str, &str, u64, u64); 12] = [
    (
        "ubench O0",
        "default",
        0xd222_2c92_3c21_f255,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O0",
        "eliding",
        0x6be4_2408_6cac_66f3,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O0",
        "uncompressed",
        0x4d89_72da_fb03_e600,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O0",
        "roi kernel",
        0xd222_2c92_3c21_f255,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O3",
        "default",
        0xee1d_2fe8_c171_bdf3,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "ubench O3",
        "eliding",
        0x2568_2433_e3c7_7794,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "ubench O3",
        "uncompressed",
        0xee1d_2fe8_c171_bdf3,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "ubench O3",
        "roi kernel",
        0xee1d_2fe8_c171_bdf3,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "synthetic",
        "default",
        0x5001_55b2_4f3d_3c84,
        0x59ca_e026_2876_c368,
    ),
    (
        "synthetic",
        "eliding",
        0x13a5_87c5_dcda_686e,
        0x59ca_e026_2876_c368,
    ),
    (
        "synthetic",
        "uncompressed",
        0x429d_5998_2f65_7317,
        0x59ca_e026_2876_c368,
    ),
    (
        "synthetic",
        "roi kernel",
        0x52ce_aa51_ac83_df82,
        0x59ca_e026_2876_c368,
    ),
];

#[test]
fn toolchain_output_is_identical_to_the_parent_commit() {
    let mut got = Vec::new();
    for (group, modules) in groups() {
        for (name, config) in configs() {
            let mut instrumented = Fnv64::new();
            let mut linted = Fnv64::new();
            for module in &modules {
                let inst = Instrumenter::new(config.clone()).instrument(module);
                instrumented.update(format!("{inst:?}").as_bytes());
                let report = lint_module(module, &config);
                linted.update(format!("{report:?}").as_bytes());
            }
            got.push((group, name, instrumented.finish(), linted.finish()));
        }
    }
    for (g, w) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            g, w,
            "got {:#018x} / {:#018x}, want {:#018x} / {:#018x}",
            g.2, g.3, w.2, w.3
        );
    }
    assert_eq!(got.len(), GOLDEN.len());
}
