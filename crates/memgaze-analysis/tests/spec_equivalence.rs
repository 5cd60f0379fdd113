//! The engine against its executable definitions.
//!
//! `tests/common/spec.rs` computes every field of a report from the
//! paper's sentences with sets and nested loops. This suite first holds
//! the spec itself to a trace small enough to work by hand, then holds
//! the streaming fold — and `Analyzer`, which reads the fold's report —
//! and the location zoom equal to the spec where the root proptests
//! (`tests/streaming_equivalence.rs`, random traces of a few samples)
//! do not reach: 48 samples over every shard size, degenerate traces,
//! zoom trees worked by hand, the top of the address space, and
//! samples that each belong to one function. Last, it holds the reuse
//! kernel to the quadratic definition around the lengths where the
//! kernel changes how it works.

#[path = "../../../tests/common/arb.rs"]
mod arb;
#[path = "../../../tests/common/spec.rs"]
mod spec;

use arb::BLOCK_SIZES;
use memgaze_analysis::{
    analyze_window, locality_vs_interval_with, stream_resident_trace, zoom_trace_with,
    AnalysisConfig, Analyzer, BlockReuse, RegionCode, ZoomConfig, ZoomRegion,
};
use memgaze_model::{
    Access, AuxAnnotations, BlockSize, DecompressionInfo, FunctionId, Ip, IpAnnot, LoadClass,
    Sample, SampledTrace, SymbolTable, TraceMeta,
};
use proptest::prelude::*;

fn input<'a>(
    trace: &'a SampledTrace,
    annots: &'a AuxAnnotations,
    symbols: &'a SymbolTable,
    (footprint_block, reuse_block): (BlockSize, BlockSize),
) -> spec::Input<'a> {
    spec::Input {
        trace,
        annots,
        symbols,
        footprint_block,
        reuse_block,
    }
}

fn config(blocks: (BlockSize, BlockSize)) -> AnalysisConfig {
    AnalysisConfig {
        footprint_block: blocks.0,
        reuse_block: blocks.1,
        ..AnalysisConfig::default()
    }
}

/// Two samples, eight accesses: `f` = [0x100, 0x200) with a Strided
/// proxy for one Constant load at 0x100 and an Irregular load at 0x104,
/// `g` = [0x200, 0x300) with a Constant load, 0x900 in no function.
fn by_hand() -> (SampledTrace, AuxAnnotations, SymbolTable) {
    let mut symbols = SymbolTable::new();
    symbols.add_function("f", Ip(0x100), Ip(0x200), "h.c");
    symbols.add_function("g", Ip(0x200), Ip(0x300), "h.c");
    let mut annots = AuxAnnotations::new();
    let mut proxy = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
    proxy.implied_const = 1;
    annots.insert(Ip(0x100), proxy);
    annots.insert(
        Ip(0x104),
        IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
    );
    annots.insert(
        Ip(0x200),
        IpAnnot::of_class(LoadClass::Constant, FunctionId(1)),
    );
    let mut t = SampledTrace::new(TraceMeta::new("by-hand", 100, 8192));
    t.meta.total_loads = 200;
    let sample = |base: u64, accesses: &[(u64, u64)]| {
        let accesses: Vec<Access> = accesses
            .iter()
            .enumerate()
            .map(|(i, &(ip, addr))| Access::new(ip, addr, base + i as u64))
            .collect();
        Sample::new(accesses, base + 10)
    };
    // Lines 0 0 1 0 2; words 0 1 8 0 16.
    t.push_sample(sample(
        0,
        &[
            (0x100, 0),
            (0x100, 8),
            (0x104, 64),
            (0x100, 0),
            (0x200, 128),
        ],
    ))
    .unwrap();
    // Lines 0 1 0; words 0 8 2. Word 0 is now touched by both classes.
    t.push_sample(sample(100, &[(0x104, 0), (0x900, 64), (0x100, 16)]))
        .unwrap();
    (t, annots, symbols)
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(1.0)
}

#[test]
fn spec_gives_the_values_worked_by_hand() {
    let (t, annots, symbols) = by_hand();
    let i = input(&t, &annots, &symbols, BLOCK_SIZES[0]);

    // A = 8, A_const = 4 (four executions of the proxy): κ = 1.5,
    // ρ = 200 loads / (1.5·8).
    let d = spec::decompression(&i);
    assert_eq!(
        d,
        DecompressionInfo {
            loads: 200,
            observed: 8,
            implied_const: 4
        }
    );
    let rho = 200.0 / 12.0;
    assert!(close(d.kappa(), 1.5) && close(d.rho(), rho));

    // f's code window: six accesses over words {0, 1, 8, 2}; Strided
    // words {0, 1, 2}, Irregular words {8, 0}; κ = 1 + 4/6; lines
    // 0 0 1 0 | 0 0 reuse four times at distances 0 1 0 0 — the third
    // across the sample boundary.
    let rows = spec::function_rows(&i);
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["f", "g", "<unknown>"], "hottest first, ties by id");
    let f = &rows[0];
    assert_eq!(f.observed, 6);
    assert!(close(f.accesses_decompressed, 10.0));
    assert!(close(f.delta_f, 0.4));
    assert!(close(f.f_str_pct, 60.0));
    assert!(close(f.f_hat_bytes, rho * 4.0 * 8.0));
    assert!(close(f.mean_d, 0.25));
    assert_eq!(f.confidence.samples, 2);
    assert!(
        close(f.confidence.mean, 2.5),
        "words {{0,1,8}} then {{0,2}}"
    );
    // g's one load is Constant: outside the strided/irregular split.
    assert_eq!((rows[1].observed, rows[1].f_str_pct), (1, 0.0));
    assert!(close(rows[1].delta_f, 1.0));

    // Per line: accesses, Σ distance, reuses, max distance — reuse
    // inside each sample only (0 0 1 0 2, then 0 1 0).
    assert_eq!(
        spec::block_rows(&i),
        [(0, [5, 2, 3, 1]), (1, [2, 0, 0, 0]), (2, [1, 0, 0, 0])]
    );
    assert_eq!(spec::reuse_histogram(&i), (vec![(0, 1), (1, 2)], 3, 2));
    let line0 = spec::region_row(&i, 0, 64);
    assert_eq!((line0.accesses, line0.blocks, line0.max_d), (5, 1, 1));
    assert!(close(line0.reuse_d, 2.0 / 3.0) && close(line0.pct_of_total, 62.5));
    assert_eq!(spec::region_row(&i, 63, 65).blocks, 2);
    assert_eq!(spec::region_row(&i, 64, 64).accesses, 0);

    // One interval per sample: κ = 1 + 3/5 over words {0,1,8,16}, then
    // κ = 1 + 1/3 over {0,8,2}; as one interval the footprints add.
    let per_sample = spec::interval_rows(&i, 2);
    assert!(close(per_sample[0].delta_f, 0.5) && close(per_sample[0].mean_d, 0.5));
    assert!(close(per_sample[0].accesses_decompressed, 8.0));
    assert!(close(per_sample[1].delta_f, 0.75) && close(per_sample[1].mean_d, 1.0));
    let whole = spec::interval_rows(&i, 1);
    assert_eq!(whole.len(), 1);
    assert!(close(whole[0].delta_f, 7.0 / 12.0) && close(whole[0].mean_d, 2.0 / 3.0));
    assert!(close(whole[0].f_hat_bytes, rho * 7.0 * 8.0));

    // Intervals of two accesses: five of them, footprints 1 2 1 2 1 in
    // lines, ΔF 1/4, 2/3, 1, 1, 1/2, one reuse at distance 0.
    let locality = spec::locality_series(&i, &[2, 64]);
    assert_eq!(locality.len(), 1, "no sample holds half of 64 accesses");
    assert_eq!((locality[0].interval, locality[0].windows), (2, 5));
    assert!(close(locality[0].mean_f, 1.4) && close(locality[0].mean_d, 0.0));
    assert!(close(
        locality[0].mean_delta_f,
        (0.25 + 2.0 / 3.0 + 1.0 + 1.0 + 0.5) / 5.0
    ));

    // And the engine says the same, bit for bit.
    let report = stream_resident_trace(&t, &annots, &symbols, config(BLOCK_SIZES[0]), &[2, 64], 1);
    spec::check_report(&report, &i, &[2, 64], 1).unwrap();
}

/// 48 samples of 100 accesses: a streaming function, a cyclic one with
/// a Constant proxy, and an ip in neither.
fn forty_eight_samples() -> (SampledTrace, AuxAnnotations, SymbolTable) {
    let mut t = SampledTrace::new(TraceMeta::new("spec-48", 10_000, 16 << 10));
    t.meta.total_loads = 48 * 10_000;
    for s in 0..48u64 {
        let base = s * 10_000;
        let accesses = (0..100u64)
            .map(|i| {
                let (ip, addr) = match i % 8 {
                    0 | 4 => (0x500 + (i % 3) * 4, 0x20_0000 + (i % 16) * 64),
                    7 => (0x900, 0x10_0000 + (i % 24) * 8),
                    _ => (0x400 + (i % 5) * 4, 0x10_0000 + (s * 100 + i) * 8),
                };
                Access::new(ip, addr, base + i)
            })
            .collect();
        t.push_sample(Sample::new(accesses, base + 100)).unwrap();
    }
    let mut annots = AuxAnnotations::new();
    for k in 0..5u64 {
        let mut an = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        an.implied_const = 3;
        annots.insert(Ip(0x400 + k * 4), an);
    }
    annots.insert(
        Ip(0x500),
        IpAnnot::of_class(LoadClass::Irregular, FunctionId(1)),
    );
    let mut constant = IpAnnot::of_class(LoadClass::Constant, FunctionId(1));
    constant.implied_const = 1;
    annots.insert(Ip(0x504), constant);
    let mut symbols = SymbolTable::new();
    symbols.add_function("stream_fn", Ip(0x400), Ip(0x500), "a.c");
    symbols.add_function("cycle_fn", Ip(0x500), Ip(0x600), "a.c");
    (t, annots, symbols)
}

#[test]
fn fold_matches_spec_when_samples_spread_over_workers() {
    // From one sample per shard to a 64-sample shard that holds all 48,
    // at every pair of block sizes.
    let (t, annots, symbols) = forty_eight_samples();
    let sizes = [8u64, 32];
    for blocks in BLOCK_SIZES {
        let want = spec::Expected::of(&input(&t, &annots, &symbols, blocks), &sizes);
        for shard in [1usize, 3, 7, 16, 64] {
            let report =
                stream_resident_trace(&t, &annots, &symbols, config(blocks), &sizes, shard);
            want.check(&report, shard)
                .unwrap_or_else(|e| panic!("{blocks:?} shard {shard}: {e}"));
        }
    }
}

#[test]
fn fold_matches_spec_where_footprint_blocks_do_not_ride_the_line() {
    // The fold counts a footprint off its reuse pass only where a line
    // holds at most 64 footprint blocks. A page of bytes (4096 a line)
    // and a footprint block above the line take the per-access distinct
    // pass; 64 bytes a line is the widest split the reuse pass carries.
    let (t, annots, symbols) = forty_eight_samples();
    let sizes = [8u64, 32];
    let pairs = [
        (BlockSize::BYTE, BlockSize::OS_PAGE),
        (BlockSize::OS_PAGE, BlockSize::CACHE_LINE),
        (BlockSize::BYTE, BlockSize::CACHE_LINE),
    ];
    for blocks in pairs {
        let want = spec::Expected::of(&input(&t, &annots, &symbols, blocks), &sizes);
        for shard in [1usize, 16, 64] {
            let report =
                stream_resident_trace(&t, &annots, &symbols, config(blocks), &sizes, shard);
            want.check(&report, shard)
                .unwrap_or_else(|e| panic!("{blocks:?} shard {shard}: {e}"));
        }
    }
}

#[test]
fn degenerate_traces_match_spec() {
    let (_, annots, symbols) = forty_eight_samples();
    // No sample at all: nothing is merged and every table is empty.
    let mut t = SampledTrace::new(TraceMeta::new("empty", 1000, 4096));
    let report = stream_resident_trace(&t, &annots, &symbols, AnalysisConfig::default(), &[8], 4);
    let i = input(&t, &annots, &symbols, BLOCK_SIZES[0]);
    spec::check_report(&report, &i, &[8], 4).unwrap();
    assert_eq!(report.ingest.merge_events, 0);
    assert!(report.function_rows.is_empty() && report.block_reuse.is_empty());
    assert!(report.locality_series.is_empty() && report.interval_rows(4).is_empty());

    // Samples without an access, alone and between others, and one
    // access on the last word of the address space.
    t.push_sample(Sample::new(Vec::new(), 10)).unwrap();
    t.push_sample(Sample::new(
        vec![
            Access::new(0x400u64, u64::MAX - 7, 20),
            Access::new(0x500u64, 0x20_0000u64, 21),
            Access::new(0x404u64, u64::MAX - 7, 22),
        ],
        23,
    ))
    .unwrap();
    t.push_sample(Sample::new(Vec::new(), 30)).unwrap();
    t.meta.total_loads = 3000;
    for blocks in BLOCK_SIZES {
        let i = input(&t, &annots, &symbols, blocks);
        for shard in [1usize, 2, 3] {
            let report =
                stream_resident_trace(&t, &annots, &symbols, config(blocks), &[1, 8], shard);
            spec::check_report(&report, &i, &[1, 8], shard)
                .unwrap_or_else(|e| panic!("{blocks:?} shard {shard}: {e}"));
        }
        let top = spec::region_row(&i, 0, u64::MAX);
        assert_eq!((top.accesses, top.blocks), (3, 2));
    }
}

/// The engine's zoom of one sample of `(ip, addr)` accesses under the
/// proptests' side tables, held equal to the spec's.
fn zoom_of(accesses: &[(u64, u64)], cfg: ZoomConfig) -> ZoomRegion {
    let (annots, symbols) = arb::fixtures();
    zoom_with(accesses, cfg, &annots, &symbols)
}

/// [`zoom_of`] under the given side tables.
fn zoom_with(
    accesses: &[(u64, u64)],
    cfg: ZoomConfig,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
) -> ZoomRegion {
    let mut t = SampledTrace::new(TraceMeta::new("zoom", 1000, 8192));
    let accesses: Vec<Access> = accesses
        .iter()
        .enumerate()
        .map(|(i, &(ip, addr))| Access::new(ip, addr, i as u64))
        .collect();
    let trigger = accesses.len() as u64;
    t.push_sample(Sample::new(accesses, trigger)).unwrap();
    let summary = BlockReuse::from_samples(&t.samples, cfg.access_block);
    let root = zoom_trace_with(&t, &summary, symbols, Some(annots), cfg);
    let i = input(&t, annots, symbols, BLOCK_SIZES[0]);
    assert_eq!(root, spec::zoom(&i, cfg));
    root.expect("a trace with accesses")
}

fn ranges(regions: &[&ZoomRegion]) -> Vec<(u64, u64)> {
    regions.iter().map(|r| (r.lo, r.hi)).collect()
}

#[test]
fn zoom_matches_spec_on_cases_worked_by_hand() {
    const MIB: u64 = 1 << 20;
    let to_256_byte_pages = ZoomConfig {
        min_page_log2: 8,
        min_region_bytes: 0,
        ..ZoomConfig::default()
    };

    // One access: a one-byte root, which is its own leaf.
    let root = zoom_of(&[(0x400, MIB + 0x40)], ZoomConfig::default());
    assert_eq!((root.lo, root.hi), (MIB + 0x40, MIB + 0x41));
    assert_eq!((root.accesses, root.blocks, root.reuse_d), (1, 1, 0.0));
    assert!(root.children.is_empty());
    let alpha = RegionCode {
        function: "alpha".to_string(),
        line: 10,
        accesses: 1,
    };
    assert_eq!(root.code, [alpha]);

    // A span smaller than the initial 1-MiB page is cut into at least
    // four: lines 0, 1 and 12, 13 of 1 KiB come apart at 256-byte pages.
    let lines: Vec<(u64, u64)> = [0, 1, 12, 13, 0, 1, 12, 13]
        .iter()
        .map(|l| (0x400, MIB + l * 64))
        .collect();
    let root = zoom_of(&lines, to_256_byte_pages);
    assert_eq!(
        ranges(&root.leaves()),
        [(MIB, MIB + 256), (MIB + 768, MIB + 13 * 64 + 1)]
    );

    // Objects A = [0, 2 KiB) and B = [4 KiB, 6 KiB) above 1 MiB, and a
    // third 4 MiB up. At 4-KiB pages A's run and B's touch — one hot
    // subregion of 8 KiB; 1-KiB pages part them; at the 256-byte floor
    // each is a run equal to its parent, so the parent is the leaf.
    let object = |base: u64| (0..32u64).map(move |l| (0x400 + (l % 3) * 0x80, base + l * 64));
    let objects: Vec<(u64, u64)> = object(MIB)
        .chain(object(MIB + 4096))
        .chain(object(5 * MIB))
        .collect();
    let root = zoom_of(&objects, to_256_byte_pages);
    let mut both = &root;
    while both.children.len() == 1 || both.children[0].hi > MIB + 8192 {
        both = &both.children[0];
    }
    assert_eq!((both.lo, both.hi, both.depth), (MIB, MIB + 8192, 5));
    let (a, b) = ((MIB, MIB + 2048), (MIB + 4096, MIB + 6144));
    assert_eq!(ranges(&both.children.iter().collect::<Vec<_>>()), [a, b]);
    assert!(both.children.iter().all(|c| c.children.is_empty()));
    assert_eq!(
        ranges(&root.leaves()),
        [a, b, (5 * MIB, 5 * MIB + 31 * 64 + 1)]
    );
    // Every third line of an object is alpha's, beta's, and an ip in
    // no function's: 11 = 11 > 10 accesses, the equal pair in name
    // order; the unannotated ip has no source line.
    let code: Vec<(&str, u32, u64)> = both.children[0]
        .code
        .iter()
        .map(|c| (c.function.as_str(), c.line, c.accesses))
        .collect();
    assert_eq!(
        code,
        [("alpha", 10, 11), ("beta", 10, 11), ("<unknown>", 0, 10)]
    );

    // Two equally hot lines of alpha, 11 and 13: the lower names the row.
    let root = zoom_of(&[(0x40c, MIB), (0x404, MIB)], ZoomConfig::default());
    let code: Vec<(&str, u32, u64)> = root
        .code
        .iter()
        .map(|c| (c.function.as_str(), c.line, c.accesses))
        .collect();
    assert_eq!(code, [("alpha", 11, 2)]);

    // Thirty-three functions, every other one accessed twice: the four
    // rows are the first four of those in name order, an order a sort
    // by count alone does not keep once a region has over twenty rows.
    let mut symbols = SymbolTable::new();
    let mut accesses = Vec::new();
    for f in 0..33u64 {
        let ip = 0x1000 + f * 0x10;
        symbols.add_function(format!("f{f:02}"), Ip(ip), Ip(ip + 0x10), "q.c");
        accesses.extend(std::iter::repeat_n((ip, MIB), 1 + (f % 2 == 0) as usize));
    }
    let root = zoom_with(
        &accesses,
        ZoomConfig::default(),
        &AuxAnnotations::new(),
        &symbols,
    );
    let code: Vec<(&str, u64)> = root
        .code
        .iter()
        .map(|c| (c.function.as_str(), c.accesses))
        .collect();
    assert_eq!(code, [("f00", 2), ("f02", 2), ("f04", 2), ("f06", 2)]);

    // A heap and a stack, 2^45 bytes apart: two leaves, found without
    // anything sized by the span.
    let (heap, stack) = (0x5555_0000_0000u64, 0x7fff_ffff_0000u64);
    let process: Vec<(u64, u64)> = (0..64)
        .flat_map(|i| [(0x400, heap + i * 64), (0x480, stack + i * 8)])
        .collect();
    let root = zoom_of(&process, ZoomConfig::default());
    assert_eq!(
        ranges(&root.leaves()),
        [(heap, heap + 4096), (stack, stack + 63 * 8 + 1)]
    );

    // The last word of the address space and its last byte.
    let root = zoom_of(
        &[(0x400, u64::MAX - 7), (0x400, u64::MAX)],
        ZoomConfig::default(),
    );
    assert_eq!((root.lo, root.hi), (u64::MAX - 7, u64::MAX));
    assert_eq!((root.accesses, root.blocks), (2, 1));
}

/// One access per cache-line block of `blocks`, in order.
fn lines(blocks: impl IntoIterator<Item = u64>) -> Vec<Access> {
    (blocks.into_iter().zip(0u64..))
        .map(|(b, i)| Access::new(0x400u64, b * 64, i))
        .collect()
}

/// `n` accesses with reuse at every distance up to `distinct`.
fn mixed(n: usize, distinct: u64) -> Vec<Access> {
    lines((0..n as u64).map(|i| (i.wrapping_mul(2654435761) >> 7) % distinct))
}

#[test]
fn reuse_kernel_matches_the_definition_where_it_changes_method() {
    let bs = BlockSize::CACHE_LINE;
    let check = |a: &[Access], what: &str| {
        assert_eq!(
            analyze_window(a, bs),
            spec::analyze_window_naive(a, bs),
            "{what}"
        );
    };
    for p in [
        vec![],
        vec![7],
        vec![1, 2, 3, 4, 1, 2, 3, 4],
        vec![1, 1, 2, 1, 3, 1, 4, 1],
        (0..64).map(|i| i % 8).collect(),
        (0..100).map(|i| (i * 37) % 11).collect(),
    ] {
        check(&lines(p.iter().copied()), &format!("{p:?}"));
    }
    // Either side of 64 accesses, where the markers leave one `u64`
    // for the bit vector and its tree.
    for n in [0usize, 1, 2, 63, 64, 65, 130] {
        for distinct in [1u64, 3, 17, 1000] {
            check(&mixed(n, distinct), &format!("n {n} distinct {distinct}"));
        }
    }
    // Either side of the 4096-access window whose buffers a thread
    // keeps, then a short window on the buffers a long one released.
    for n in [4095usize, 4096, 4097] {
        check(&mixed(n, 97), &format!("n {n}"));
    }
    check(&mixed(50, 7), "after a released window");
}

#[test]
fn kernel_rows_total_the_events() {
    let mut t = SampledTrace::new(TraceMeta::new("rows", 1000, 8192));
    t.push_sample(Sample::new(mixed(300, 23), 300)).unwrap();
    let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
    let i = input(&t, &annots, &symbols, BLOCK_SIZES[0]);
    let summary = BlockReuse::from_samples(&t.samples, i.reuse_block);
    assert_eq!(summary.raw_rows().collect::<Vec<_>>(), spec::block_rows(&i));
}

#[test]
fn locality_series_matches_spec_across_passes() {
    // Three annotated ips and one not; samples on both sides of the
    // 64-access marker split; more sizes than one pass serves.
    let mut annots = AuxAnnotations::new();
    for (k, class) in [
        LoadClass::Strided,
        LoadClass::Constant,
        LoadClass::Irregular,
    ]
    .into_iter()
    .enumerate()
    {
        let mut an = IpAnnot::of_class(class, FunctionId(0));
        an.implied_const = k as u32 * 2 + 1;
        annots.insert(Ip(0x400 + k as u64 * 4), an);
    }
    let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
    for (s, len) in (0u64..).zip([0u64, 1, 63, 64, 65, 500]) {
        let accesses: Vec<Access> = (0..len)
            .map(|i| Access::new(0x400 + (i * 5 % 4) * 4, (i * i % 89 + s) * 24, s * 1000 + i))
            .collect();
        t.push_sample(Sample::new(accesses, s * 1000 + len))
            .unwrap();
    }
    let chunks = [1u64, 15, 16, 17, 63, 64, 65, 200, 1000];
    let symbols = SymbolTable::new();
    let blocks = (BlockSize::CACHE_LINE, BlockSize::CACHE_LINE);
    assert_eq!(
        locality_vs_interval_with(&t, &annots, blocks.1, &chunks, 1),
        spec::locality_series(&input(&t, &annots, &symbols, blocks), &chunks)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sample whose accesses all come from one function — alpha, beta
    /// or none — is that function's window, and the fold reads the
    /// function's reuse and footprint off the sample's own passes: the
    /// report equals the spec at every pair of block sizes, on samples
    /// long enough to leave the one-word marker set.
    #[test]
    fn fold_matches_spec_on_one_function_samples(
        t in arb::traces_of(arb::arb_one_function_window(200)),
        shard in 1usize..5,
    ) {
        let (annots, symbols) = arb::fixtures();
        let sizes = [8u64, 32];
        for blocks in BLOCK_SIZES {
            let report = stream_resident_trace(&t, &annots, &symbols, config(blocks), &sizes, shard);
            let i = input(&t, &annots, &symbols, blocks);
            spec::check_report(&report, &i, &sizes, shard).map_err(TestCaseError::fail)?;
        }
    }

    /// `Analyzer` reads the fold's report: the five methods that do
    /// equal the spec, whichever is asked first, and `decompression()`
    /// says the same before any table exists (the model's one-pass
    /// definition) as after (the report's copy).
    #[test]
    fn analyzer_tables_match_spec(
        t in arb::arb_trace(),
        blocks in 0usize..3,
        tables_first in 0usize..2,
    ) {
        let (annots, symbols) = arb::fixtures();
        let i = input(&t, &annots, &symbols, BLOCK_SIZES[blocks]);
        let a = Analyzer::new(&t, &annots, &symbols).with_config(config(BLOCK_SIZES[blocks]));
        let want = spec::decompression(&i);
        if tables_first == 1 {
            prop_assert_eq!(a.function_table(), &spec::function_rows(&i)[..]);
        }
        prop_assert_eq!(a.decompression(), want);
        prop_assert_eq!(a.function_table(), &spec::function_rows(&i)[..]);
        prop_assert_eq!(a.decompression(), want);
        prop_assert_eq!(
            a.block_reuse().raw_rows().collect::<Vec<_>>(),
            spec::block_rows(&i)
        );
        for n in [1usize, 4, t.samples.len()] {
            prop_assert_eq!(a.interval_rows(n), spec::interval_rows(&i, n));
        }
        for row in a.region_rows() {
            let (lo, hi) = row.range;
            prop_assert_eq!(a.region_row_for(lo, hi), spec::region_row(&i, lo, hi));
        }
        prop_assert_eq!(a.region_row_for(0, u64::MAX), spec::region_row(&i, 0, u64::MAX));
    }
}
