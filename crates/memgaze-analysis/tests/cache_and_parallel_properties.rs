//! Property tests of the throughput overhaul's three pillars:
//!
//! 1. the memoized `Analyzer` returns the same resident-only artifacts
//!    (zoom, region rows, heatmaps, window series, interval tree) as a
//!    fresh analyzer computed from scratch for each query — the tables
//!    it reads from the fold's report answer to the spec instead
//!    (`spec_equivalence.rs`);
//! 2. the indexed `BlockReuse` region queries agree with a linear-scan
//!    oracle over `(block, stats)` pairs;
//! 3. every parallelized per-sample pass is invariant in the worker
//!    count (threads = N matches threads = 1 bit-for-bit);
//! 4. the window kernels equal their set-and-scan definitions.

#[path = "../../../tests/common/arb.rs"]
mod arb;

use arb::{arb_trace, arb_window};
use memgaze_analysis::{
    analyze_window, analyze_window_naive, captures_survivals, locality_vs_interval_with,
    region_heatmaps_from, window_series_with, AnalysisConfig, Analyzer, BlockReuse,
    FootprintDiagnostics, IntervalTree,
};
use memgaze_model::{
    AuxAnnotations, BlockSize, FunctionId, Ip, IpAnnot, LoadClass, SampledTrace, SymbolTable,
};
use proptest::prelude::*;

/// Linear-scan oracle for the indexed region queries: per-block
/// `(accesses, Σ distance, reuse count, max distance)` accumulated
/// directly from the per-sample analyses, queried by brute force.
#[derive(Default)]
struct ScanOracle {
    rows: Vec<(u64, u64, u64, u64, u64)>, // block, accesses, dist_sum, reuse_cnt, max
}

fn oracle(t: &SampledTrace, bs: BlockSize) -> ScanOracle {
    use std::collections::BTreeMap;
    let mut m: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in &t.samples {
        let r = analyze_window(&s.accesses, bs);
        for a in &s.accesses {
            m.entry(a.addr.block(bs)).or_default().0 += 1;
        }
        for e in &r.events {
            let ent = m.entry(e.block).or_default();
            ent.1 += e.distance;
            ent.2 += 1;
            ent.3 = ent.3.max(e.distance);
        }
    }
    ScanOracle {
        rows: m
            .into_iter()
            .map(|(b, (a, d, c, x))| (b, a, d, c, x))
            .collect(),
    }
}

impl ScanOracle {
    fn in_range(&self, lo: u64, hi: u64) -> impl Iterator<Item = &(u64, u64, u64, u64, u64)> {
        self.rows.iter().filter(move |r| r.0 >= lo && r.0 < hi)
    }
    fn accesses(&self, lo: u64, hi: u64) -> u64 {
        self.in_range(lo, hi).map(|r| r.1).sum()
    }
    fn blocks(&self, lo: u64, hi: u64) -> u64 {
        self.in_range(lo, hi).count() as u64
    }
    fn mean_distance(&self, lo: u64, hi: u64) -> f64 {
        let (mut sum, mut cnt) = (0u64, 0u64);
        for r in self.in_range(lo, hi) {
            sum += r.2;
            cnt += r.3;
        }
        if cnt == 0 {
            0.0
        } else {
            sum as f64 / cnt as f64
        }
    }
    fn max_distance(&self, lo: u64, hi: u64) -> u64 {
        self.in_range(lo, hi).map(|r| r.4).max().unwrap_or(0)
    }
}

fn trace_block_reuse(t: &SampledTrace, bs: BlockSize) -> BlockReuse {
    let mut br = BlockReuse::default();
    for s in &t.samples {
        br.merge(&BlockReuse::from_samples(std::slice::from_ref(s), bs));
    }
    br
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pillar 1: every memoized resident-only artifact equals the same
    /// artifact from a fresh analyzer, asked once or twice.
    #[test]
    fn cached_analyzer_matches_fresh(t in arb_trace()) {
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let cfg = AnalysisConfig::default();
        let cached = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        let region = (0x10_0000u64, 0x10_0000 + (1 << 15));
        let sizes = [8u64, 32, 128];

        // Query everything twice from the cached analyzer.
        for _ in 0..2 {
            let _ = cached.zoom();
            let _ = cached.region_rows();
            let _ = cached.heatmaps(region, 8, 8);
            let _ = cached.window_series(&sizes);
            let _ = cached.interval_tree();
        }
        let fresh = || Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        prop_assert_eq!(cached.region_rows(), fresh().region_rows());
        prop_assert_eq!(cached.heatmaps(region, 8, 8), fresh().heatmaps(region, 8, 8));
        prop_assert_eq!(cached.window_series(&sizes), fresh().window_series(&sizes));
        prop_assert_eq!(cached.interval_tree(), fresh().interval_tree());
        let f = fresh();
        prop_assert_eq!(cached.sample_reuse(), f.sample_reuse());
        prop_assert_eq!(cached.zoom(), f.zoom());
    }

    /// Pillar 2: indexed region queries equal the linear-scan oracle on
    /// arbitrary query ranges (including empty and reversed ones).
    #[test]
    fn indexed_region_queries_match_scan(
        t in arb_trace(),
        queries in prop::collection::vec((0u64..(1 << 14), 0u64..(1 << 14)), 1..20),
    ) {
        let br = trace_block_reuse(&t, BlockSize::CACHE_LINE);
        let o = oracle(&t, BlockSize::CACHE_LINE);
        // Blocks of the generated addresses: 0x10_0000/64 .. + 2^12*8/64.
        let base = 0x10_0000u64 >> 6;
        for (a, b) in queries {
            let (lo, hi) = (base + a.min(b), base + a.max(b));
            prop_assert_eq!(br.region_accesses(lo, hi), o.accesses(lo, hi));
            prop_assert_eq!(br.region_blocks(lo, hi), o.blocks(lo, hi));
            prop_assert_eq!(br.region_max_distance(lo, hi), o.max_distance(lo, hi));
            // Both sides divide identical integer sums → exactly equal.
            prop_assert_eq!(br.region_mean_distance(lo, hi), o.mean_distance(lo, hi));
        }
        // Degenerate ranges.
        prop_assert_eq!(br.region_accesses(10, 10), 0);
        prop_assert_eq!(br.region_accesses(0, u64::MAX), o.accesses(0, u64::MAX));
    }

    /// Pillar 3: the parallel per-sample passes are bit-for-bit
    /// invariant in the worker count.
    #[test]
    fn parallel_passes_match_single_thread(t in arb_trace(), threads in 2usize..6) {
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let sizes = [8u64, 32, 128];
        let info = {
            let a = Analyzer::new(&t, &annots, &symbols);
            a.decompression()
        };

        let w1 = window_series_with(&t, &annots, BlockSize::WORD, &sizes, &info, 1);
        let wn = window_series_with(&t, &annots, BlockSize::WORD, &sizes, &info, threads);
        prop_assert_eq!(w1, wn);

        let l1 = locality_vs_interval_with(&t, &annots, BlockSize::CACHE_LINE, &sizes, 1);
        let ln = locality_vs_interval_with(&t, &annots, BlockSize::CACHE_LINE, &sizes, threads);
        prop_assert_eq!(l1, ln);

        let analyses: Vec<_> = t
            .samples
            .iter()
            .map(|s| analyze_window(&s.accesses, BlockSize::CACHE_LINE))
            .collect();
        let region = (0x10_0000u64, 0x10_0000 + (1 << 15));
        let last = t.accesses().map(|a| a.time).max().unwrap_or(0);
        let times = (t.accesses().map(|a| a.time).min().unwrap_or(0), last + 1);
        let (a1, d1) = region_heatmaps_from(&t, &analyses, times, region, 8, 8, 1);
        let (an, dn) = region_heatmaps_from(&t, &analyses, times, region, 8, 8, threads);
        prop_assert_eq!(a1, an);
        prop_assert_eq!(d1, dn);

        let tree1 = IntervalTree::build_par(&t, &annots, &symbols, BlockSize::WORD, 1.0, 1);
        let treen = IntervalTree::build_par(&t, &annots, &symbols, BlockSize::WORD, 1.0, threads);
        prop_assert_eq!(tree1, treen);

        // And through the analyzer façade: threads=1 vs threads=N config
        // produce identical resident-only artifacts.
        let c1 = AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        };
        let cn = AnalysisConfig { threads, ..c1 };
        let one = Analyzer::new(&t, &annots, &symbols).with_config(c1);
        let many = Analyzer::new(&t, &annots, &symbols).with_config(cn);
        prop_assert_eq!(one.zoom(), many.zoom());
        prop_assert_eq!(one.region_rows(), many.region_rows());
        prop_assert_eq!(one.heatmaps(region, 8, 8), many.heatmaps(region, 8, 8));
        prop_assert_eq!(one.window_series(&sizes), many.window_series(&sizes));
        prop_assert_eq!(one.interval_tree(), many.interval_tree());
    }

    /// Pillar 4: the fused kernels against plain definitions — reuse
    /// against the O(n²) oracle on both sides of the 64-access marker
    /// split, diagnostics and captures against `BTreeSet`s.
    #[test]
    fn kernels_match_their_definitions(w in arb_window(150), classes in prop::collection::vec(0u8..4, 64..65)) {
        use std::collections::{BTreeMap, BTreeSet};
        let bs = BlockSize::CACHE_LINE;
        for part in [&w[..], &w[..w.len().min(64)], &w[..w.len().min(17)]] {
            prop_assert_eq!(analyze_window(part, bs), analyze_window_naive(part, bs));
        }

        // ip k of `arb_access` is Strided, Irregular, Constant or
        // unannotated (which reads as Irregular), implying k constants.
        let mut annots = AuxAnnotations::new();
        for (k, &c) in classes.iter().enumerate() {
            let class = match c {
                0 => LoadClass::Strided,
                1 => LoadClass::Irregular,
                2 => LoadClass::Constant,
                _ => continue,
            };
            let mut an = IpAnnot::of_class(class, FunctionId(0));
            an.implied_const = k as u32;
            annots.insert(Ip(0x400 + k as u64 * 4), an);
        }
        let blocks_of = |class: LoadClass| -> u64 {
            w.iter()
                .filter(|a| annots.class_of(a.ip) == class)
                .map(|a| a.addr.block(bs))
                .collect::<BTreeSet<u64>>()
                .len() as u64
        };
        let d = FootprintDiagnostics::compute(&w, &annots, bs);
        let all: BTreeSet<u64> = w.iter().map(|a| a.addr.block(bs)).collect();
        prop_assert_eq!(d.observed, w.len() as u64);
        prop_assert_eq!(d.footprint, all.len() as u64);
        prop_assert_eq!(d.f_str, blocks_of(LoadClass::Strided));
        prop_assert_eq!(d.f_irr, blocks_of(LoadClass::Irregular));
        prop_assert_eq!(
            d.implied_const,
            w.iter().map(|a| annots.implied_const_of(a.ip)).sum::<u64>()
        );

        let mut touches: BTreeMap<u64, u64> = BTreeMap::new();
        for a in &w {
            *touches.entry(a.addr.block(bs)).or_default() += 1;
        }
        let cs = captures_survivals(&w, bs);
        prop_assert_eq!(cs.captures, touches.values().filter(|&&n| n >= 2).count() as u64);
        prop_assert_eq!(cs.survivals, touches.values().filter(|&&n| n == 1).count() as u64);
    }
}
