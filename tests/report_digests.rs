//! Golden identity of the resident report.
//!
//! Each digest is the FNV-1a-64 of `format!("{:?}")` of what `Analyzer`
//! returns for one artifact of one trace under one `(footprint_block,
//! reuse_block)`, as produced at commit 034d17e — the parent of the
//! change that made the streaming fold the only engine that computes a
//! report. Every row, every `f64` and the block summary's whole query
//! index are in those strings, so a digest moves only when an answer
//! does. The location zoom's whole tree has its own table
//! ([`GOLDEN_ZOOM`]), recorded one commit before the zoom was rebuilt on
//! the block summary; the window series and the heatmaps theirs
//! ([`GOLDEN_SERIES`]), recorded one commit before the interval metrics
//! were counted from one pass per sample.
//!
//! The traces reach every branch of the report path: two native
//! workloads through `trace_workload`, two IR microbenchmarks through
//! `run_microbench`, and a hand-built trace with an ip outside every
//! function, a block touched by a Strided and by an Irregular load, two
//! ips of one function in different classes, and an empty sample.

use memgaze::analysis::{reuse_histogram_from, AnalysisConfig, Analyzer, ZoomConfig};
use memgaze::core::{trace_workload, MemGaze, PipelineConfig};
use memgaze::model::{
    Access, AuxAnnotations, BlockSize, Fnv64, FunctionId, Ip, IpAnnot, LoadClass, Sample,
    SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::ptsim::SamplerConfig;
use memgaze::workloads::gap::{self, GapConfig, GapKernel};
use memgaze::workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze::workloads::ubench::{MicroBench, OptLevel};

type Fixture = (&'static str, SampledTrace, AuxAnnotations, SymbolTable);

fn workload_traces() -> Vec<Fixture> {
    let sampler = SamplerConfig::application(2_000);
    let gap_cfg = GapConfig {
        scale: 8,
        degree: 8,
        kernel: GapKernel::Pr,
        max_iters: 5,
        seed: 13,
    };
    let (pr, _) = trace_workload("gap-pr", &sampler, |s| gap::run(s, &gap_cfg));
    let mv_cfg = MiniViteConfig {
        scale: 8,
        degree: 8,
        iterations: 2,
        variant: MapVariant::V1,
        seed: 77,
        v2_default_capacity: 64,
    };
    let (mv, _) = trace_workload("miniVite-v1", &sampler, |s| minivite::run(s, &mv_cfg));
    vec![
        ("gap-pr", pr.trace, pr.annots, pr.symbols),
        ("miniVite-v1", mv.trace, mv.annots, mv.symbols),
    ]
}

fn microbench_traces() -> Vec<Fixture> {
    let mut cfg = PipelineConfig::microbench();
    cfg.sampler.period = 2_000;
    let mg = MemGaze::new(cfg);
    [
        ("str2|irr O0", "str2|irr", OptLevel::O0),
        ("irr O3", "irr", OptLevel::O3),
    ]
    .into_iter()
    .map(|(tag, name, opt)| {
        let bench = MicroBench::parse(name, 1024, 10, opt).unwrap();
        let r = mg.run_microbench(&bench).unwrap();
        (
            tag,
            r.trace,
            r.instrumented.annots,
            r.instrumented.orig_symbols,
        )
    })
    .collect()
}

/// Ips 0x400..0x440 are `f` (Strided with two implied constants at
/// 0x400, Irregular at 0x410, Constant at 0x420, unannotated at 0x430),
/// 0x500 is `g` (Irregular), 0x900 is in no function.
fn hand_built() -> Fixture {
    let mut symbols = SymbolTable::new();
    symbols.add_function("f", Ip(0x400), Ip(0x440), "h.c");
    symbols.add_function("g", Ip(0x500), Ip(0x540), "h.c");
    let mut annots = AuxAnnotations::new();
    let mut strided = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
    strided.implied_const = 2;
    strided.src_line = 7;
    annots.insert(Ip(0x400), strided);
    annots.insert(
        Ip(0x410),
        IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
    );
    let mut constant = IpAnnot::of_class(LoadClass::Constant, FunctionId(0));
    constant.implied_const = 1;
    annots.insert(Ip(0x420), constant);
    annots.insert(
        Ip(0x500),
        IpAnnot::of_class(LoadClass::Irregular, FunctionId(1)),
    );

    let mut t = SampledTrace::new(TraceMeta::new("hand-built", 1_000, 8192));
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for s in 0..9u64 {
        let base = s * 1_000;
        let mut acc = Vec::new();
        // Sample 4 is empty; the others grow, so one is longer than the
        // kernel's 64-access bitset window.
        let n = if s == 4 { 0 } else { 20 + s * 9 };
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (ip, addr) = match i % 6 {
                // A stream of words, 24 to a sample …
                0 | 1 => (0x400, 0x10_0000 + ((s * 24 + i) % 160) * 8),
                // … whose blocks an Irregular load of the same function
                // touches too.
                2 => (0x410, 0x10_0000 + (x % 160) * 8),
                3 => (0x420, 0x20_0000),
                4 => (0x500, 0x30_0000 + (x % 512) * 64),
                _ => (
                    if i % 12 == 5 { 0x900 } else { 0x430 },
                    0x40_0000 + (x % 64) * 8,
                ),
            };
            acc.push(Access::new(ip, addr, base + i));
        }
        t.push_sample(Sample::new(acc, base + n)).unwrap();
    }
    t.meta.total_loads = 9_000;
    ("hand-built", t, annots, symbols)
}

fn configs() -> [(&'static str, AnalysisConfig); 2] {
    [
        ("8/64", AnalysisConfig::default()),
        (
            "64/4096",
            AnalysisConfig {
                footprint_block: BlockSize::CACHE_LINE,
                reuse_block: BlockSize::OS_PAGE,
                ..AnalysisConfig::default()
            },
        ),
    ]
}

fn digest(parts: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for p in parts {
        h.update(p.as_bytes());
    }
    h.finish()
}

/// Digests of `decompression`, `function_table`, `block_reuse`,
/// `interval_rows` at 1, 4, 8 and one interval per sample,
/// `region_rows`, `region_row_for` of every region row, the reuse
/// histogram and the locality series, in that order.
fn report_digests(a: &Analyzer<'_>) -> [u64; 8] {
    let samples = a.trace().num_samples();
    let regions = a.region_rows();
    [
        digest(&[format!("{:?}", a.decompression())]),
        digest(&[format!("{:?}", a.function_table())]),
        digest(&[format!("{:?}", a.block_reuse())]),
        digest(&[1, 4, 8, samples].map(|n| format!("{:?}", a.interval_rows(n)))),
        digest(&[format!("{regions:?}")]),
        digest(
            &regions
                .iter()
                .map(|r| format!("{:?}", a.region_row_for(r.range.0, r.range.1)))
                .collect::<Vec<_>>(),
        ),
        digest(&[format!("{:?}", reuse_histogram_from(a.sample_reuse()))]),
        digest(&[format!("{:?}", a.locality_series(&[16, 64, 256]))]),
    ]
}

/// `(trace, config, digests)` at the parent.
const GOLDEN: &[(&str, &str, [u64; 8])] = &[
    (
        "gap-pr",
        "8/64",
        [
            0x74dc_8a05_2971_ee77,
            0xbd24_3761_37db_2eab,
            0xf920_13b0_0a9c_7d12,
            0x037e_edb0_1d1c_f147,
            0x5fab_148f_bf38_fc7e,
            0x5049_cb4c_db86_3e33,
            0x191b_dcc3_d652_4890,
            0x5358_b2f5_1713_b7e4,
        ],
    ),
    (
        "gap-pr",
        "64/4096",
        [
            0x74dc_8a05_2971_ee77,
            0x7943_42f9_6b6f_b54d,
            0xa838_177c_d99f_d573,
            0xf230_d94c_944d_29a1,
            0x451d_d561_094f_52d7,
            0x2251_129b_b21b_5879,
            0x8f78_a806_ee30_47e3,
            0x7c7f_d2d4_5348_2b76,
        ],
    ),
    (
        "miniVite-v1",
        "8/64",
        [
            0xf4f8_a176_f2c7_6d5f,
            0xea58_80d7_dd46_0cdc,
            0x6315_7c02_b0d0_7db5,
            0x0600_2630_62d9_7618,
            0x67e7_7b23_bff5_8180,
            0xa1b5_b39b_3b9e_4137,
            0x05ca_fc38_327c_b52e,
            0xec5f_5e20_cc91_e6ac,
        ],
    ),
    (
        "miniVite-v1",
        "64/4096",
        [
            0xf4f8_a176_f2c7_6d5f,
            0x3c94_c099_6390_ed29,
            0xae1f_fd89_5b0c_0e86,
            0x11cf_3129_aab0_d47f,
            0x0945_ad9e_c548_d814,
            0x5716_d7c8_a00f_6bbb,
            0xc6d0_66e0_11fa_9c1e,
            0x03ab_fcf7_65bd_5421,
        ],
    ),
    (
        "str2|irr O0",
        "8/64",
        [
            0xf049_c342_303e_9ffb,
            0xfd2a_6a97_3a2c_2506,
            0xbd40_38c0_c8f7_03da,
            0x4f5c_28bc_6678_29a7,
            0x7947_c28e_39d3_c9a6,
            0xdc7d_be7a_f741_5ed5,
            0x9ded_fade_59cf_cb90,
            0x198a_a7c1_7d8d_7be4,
        ],
    ),
    (
        "str2|irr O0",
        "64/4096",
        [
            0xf049_c342_303e_9ffb,
            0x98a5_6c99_e043_a29e,
            0x7e2e_218d_0ee4_8a94,
            0x7ad6_e823_0b47_437b,
            0xb9fa_c510_090a_7b3d,
            0x83cc_383b_9d99_8eb9,
            0x6a1a_0426_3c82_b4bf,
            0x0a1d_7569_7e56_1f3e,
        ],
    ),
    (
        "irr O3",
        "8/64",
        [
            0x3c4f_ae85_68d8_4832,
            0x195d_69e3_8b27_d6fe,
            0xcbd2_e8a9_be20_9181,
            0xa8db_72d2_5cce_6b21,
            0xc86c_8513_2b25_07cc,
            0x069a_560b_39d7_b108,
            0xa97f_2ee8_8474_adb1,
            0x75f6_761a_f8de_d9d3,
        ],
    ),
    (
        "irr O3",
        "64/4096",
        [
            0x3c4f_ae85_68d8_4832,
            0x23fb_2380_b333_f74e,
            0x2bf3_eb43_4d77_a531,
            0x93a1_66ab_7e41_9186,
            0xdddd_2b06_4f55_30fc,
            0x8800_3390_b089_b233,
            0xe0b5_dd7e_3ce6_5202,
            0xdc36_15a5_3480_7529,
        ],
    ),
    (
        "hand-built",
        "8/64",
        [
            0x42f0_0de8_4a9d_c59c,
            0x123f_3e99_6184_715a,
            0xf44a_5bc7_076a_671e,
            0xfaa0_380e_b58f_7d1f,
            0x5867_15ed_5891_176e,
            0xe418_d19d_0374_e1df,
            0x3738_a82b_13d4_59e9,
            0xc2f9_d04d_fd83_d89c,
        ],
    ),
    (
        "hand-built",
        "64/4096",
        [
            0x42f0_0de8_4a9d_c59c,
            0xed4f_4ba2_8c24_59a3,
            0x35ab_4494_a60b_6390,
            0x2e50_731f_beae_b7dc,
            0xed97_f835_e835_2fd8,
            0x2ddc_81be_bacd_0846,
            0xc425_04b8_0a8f_52c2,
            0xee69_0aa1_2c3f_e296,
        ],
    ),
];

/// The zoom the paper tables never ask for: a 1 % threshold and a
/// 256-byte floor grow the tree to hundreds of regions, many with
/// equally hot functions and lines.
fn fine_zoom() -> ZoomConfig {
    ZoomConfig {
        hot_threshold_pct: 1.0,
        min_page_log2: 8,
        min_region_bytes: 256,
        max_depth: 12,
        ..ZoomConfig::default()
    }
}

/// Digests of `zoom()` — the whole tree, every `RegionCode` with its
/// line — under the default `ZoomConfig` and under [`fine_zoom`].
fn zoom_digests(a: Analyzer<'_>) -> [u64; 2] {
    let default = digest(&[format!("{:?}", a.zoom())]);
    let cfg = AnalysisConfig {
        zoom: fine_zoom(),
        ..*a.config()
    };
    let fine = a.with_config(cfg);
    [default, digest(&[format!("{:?}", fine.zoom())])]
}

/// `(trace, config, zoom digests)` of the parent's zoom once the order
/// of equally hot functions and lines was defined (accesses descending,
/// then name; the lowest line among equals) — the commit before the
/// zoom was rebuilt on the block summary.
const GOLDEN_ZOOM: &[(&str, &str, [u64; 2])] = &[
    (
        "gap-pr",
        "8/64",
        [0xa52d_3905_4946_6806, 0x10e8_35f8_fa8e_8ac4],
    ),
    (
        "gap-pr",
        "64/4096",
        [0xa52d_3905_4946_6806, 0x10e8_35f8_fa8e_8ac4],
    ),
    (
        "miniVite-v1",
        "8/64",
        [0x3dda_c546_4970_1c94, 0x089e_17e3_ddd8_aa57],
    ),
    (
        "miniVite-v1",
        "64/4096",
        [0x3dda_c546_4970_1c94, 0x089e_17e3_ddd8_aa57],
    ),
    (
        "str2|irr O0",
        "8/64",
        [0xedf3_9c0f_80e9_2e6d, 0x1e0c_3713_d271_19fe],
    ),
    (
        "str2|irr O0",
        "64/4096",
        [0xedf3_9c0f_80e9_2e6d, 0x1e0c_3713_d271_19fe],
    ),
    (
        "irr O3",
        "8/64",
        [0x1e87_e6cd_b707_ef5a, 0xa589_44a8_79f3_3602],
    ),
    (
        "irr O3",
        "64/4096",
        [0x1e87_e6cd_b707_ef5a, 0xa589_44a8_79f3_3602],
    ),
    (
        "hand-built",
        "8/64",
        [0x5507_99f1_138d_7684, 0xcdf4_262d_cb97_dade],
    ),
    (
        "hand-built",
        "64/4096",
        [0x5507_99f1_138d_7684, 0xcdf4_262d_cb97_dade],
    ),
];

/// Digests of `window_series` over sizes inside a sample, at and past
/// the period, and of both `heatmaps` of the two hottest region rows at
/// 16 × 32 and at 3 × 5 cells.
fn series_digests(a: &Analyzer<'_>) -> [u64; 2] {
    let period = a.trace().meta.period;
    let sizes = [1, 16, 64, 256, period, 4 * period];
    let maps: Vec<String> = (a.region_rows().iter().take(2))
        .flat_map(|r| [(16, 32), (3, 5)].map(|(rows, cols)| (r.range, rows, cols)))
        .map(|(range, rows, cols)| format!("{:?}", a.heatmaps(range, rows, cols)))
        .collect();
    [
        digest(&[format!("{:?}", a.window_series(&sizes))]),
        digest(&maps),
    ]
}

/// `(trace, config, series digests)` of the parent of the change that
/// computed every interval of a sample from one pass over it.
const GOLDEN_SERIES: &[(&str, &str, [u64; 2])] = &[
    (
        "gap-pr",
        "8/64",
        [0x6622_41d4_5945_7493, 0x3350_4250_68d3_33a7],
    ),
    (
        "gap-pr",
        "64/4096",
        [0x1f45_3c7c_0380_a3c5, 0x173a_c04a_eacc_271c],
    ),
    (
        "miniVite-v1",
        "8/64",
        [0xba97_b8e2_5fab_e2a3, 0x9c83_9117_f4df_2b57],
    ),
    (
        "miniVite-v1",
        "64/4096",
        [0xb703_dd7b_5d95_1f0b, 0xc2c6_88c3_1caa_6a14],
    ),
    (
        "str2|irr O0",
        "8/64",
        [0x4563_2be3_4dcb_fa11, 0x5731_1213_013a_34cb],
    ),
    (
        "str2|irr O0",
        "64/4096",
        [0x1c15_f4e3_7a4a_79b2, 0x022b_366e_2bb7_2c70],
    ),
    (
        "irr O3",
        "8/64",
        [0x9a05_2c5d_a995_b2d8, 0x80d6_e2be_cbbd_3abc],
    ),
    (
        "irr O3",
        "64/4096",
        [0xeee0_f146_167d_af80, 0x816f_2e7c_f9a4_b21b],
    ),
    (
        "hand-built",
        "8/64",
        [0x753d_d45f_fcbd_b402, 0x415e_d1eb_ffe0_cb0f],
    ),
    (
        "hand-built",
        "64/4096",
        [0x431e_db41_27e5_1a69, 0x5983_8a96_2d05_2936],
    ),
];

#[test]
fn report_is_identical_to_the_parent_commit() {
    let mut fixtures = workload_traces();
    fixtures.extend(microbench_traces());
    fixtures.push(hand_built());
    let mut got = Vec::new();
    let mut got_zoom = Vec::new();
    let mut got_series = Vec::new();
    for (name, trace, annots, symbols) in &fixtures {
        assert!(
            trace.observed_accesses() > 0 && trace.num_samples() > 1,
            "{name}: degenerate fixture"
        );
        for (cfg_name, cfg) in configs() {
            let a = Analyzer::new(trace, annots, symbols).with_config(cfg);
            got.push((*name, cfg_name, report_digests(&a)));
            got_series.push((*name, cfg_name, series_digests(&a)));
            got_zoom.push((*name, cfg_name, zoom_digests(a)));
        }
    }
    for (g, w) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g, w, "got {:#018x?}", g.2);
    }
    assert_eq!(got.len(), GOLDEN.len(), "got {got:#018x?}");
    for (g, w) in got_zoom.iter().zip(GOLDEN_ZOOM.iter()) {
        assert_eq!(g, w, "got {:#018x?}", g.2);
    }
    assert_eq!(got_zoom.len(), GOLDEN_ZOOM.len(), "got {got_zoom:#018x?}");
    for (g, w) in got_series.iter().zip(GOLDEN_SERIES.iter()) {
        assert_eq!(g, w, "got {:#018x?}", g.2);
    }
    assert_eq!(
        got_series.len(),
        GOLDEN_SERIES.len(),
        "got {got_series:#018x?}"
    );
}
