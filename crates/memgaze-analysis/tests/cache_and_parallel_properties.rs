//! Property tests of the throughput overhaul's pillars:
//!
//! 1. the memoized `Analyzer` returns the same resident-only artifacts
//!    (zoom, region rows, heatmaps, window and locality series, interval
//!    tree) as a fresh analyzer computed from scratch for each query, and
//!    its event lists, which fill with the fold's report in one slot, are
//!    `analyze_window`'s — the tables it reads from the fold's report
//!    answer to the spec instead (`spec_equivalence.rs`);
//! 2. the indexed `BlockReuse` region queries agree with a linear-scan
//!    oracle over `(block, stats)` pairs;
//! 3. the window kernels equal their set-and-scan definitions.

#[path = "../../../tests/common/arb.rs"]
mod arb;
#[path = "../../../tests/common/spec.rs"]
mod spec;

use arb::{arb_trace, arb_window};
use memgaze_analysis::{
    analyze_window, captures_survivals, locality_vs_interval_with, AnalysisConfig, Analyzer,
    BlockReuse, FootprintDiagnostics,
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
            let ent = m
                .entry(s.accesses[e.pos as usize].addr.block(bs))
                .or_default();
            let d = u64::from(e.distance);
            ent.1 += d;
            ent.2 += 1;
            ent.3 = ent.3.max(d);
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
            let _ = cached.locality_series(&sizes);
            let _ = cached.interval_tree();
        }
        // One slot holds the report and the event lists, one the zoom.
        let stats = cached.cache_stats();
        prop_assert_eq!(
            (stats.decompression, stats.sample_reuse, stats.block_reuse, stats.zoom),
            (1, 1, 1, 1)
        );
        let fresh = || Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        prop_assert_eq!(cached.region_rows(), fresh().region_rows());
        prop_assert_eq!(cached.heatmaps(region, 8, 8), fresh().heatmaps(region, 8, 8));
        prop_assert_eq!(cached.window_series(&sizes), fresh().window_series(&sizes));
        prop_assert_eq!(cached.locality_series(&sizes), fresh().locality_series(&sizes));
        prop_assert_eq!(
            cached.locality_series(&sizes),
            locality_vs_interval_with(&t, &annots, cfg.reuse_block, &sizes, 1)
        );
        prop_assert_eq!(cached.interval_tree(), fresh().interval_tree());
        let f = fresh();
        prop_assert_eq!(cached.sample_reuse(), f.sample_reuse());
        // Asked only for the lists, the fresh analyzer ran the fold.
        prop_assert_eq!(f.cache_stats().block_reuse, 1);
        let per_sample: Vec<_> = (t.samples.iter())
            .map(|s| analyze_window(&s.accesses, cfg.reuse_block))
            .collect();
        prop_assert_eq!(cached.sample_reuse(), &per_sample[..]);
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

    /// Pillar 3: the fused kernels against plain definitions — reuse
    /// against the spec's O(n²) definition on both sides of the
    /// 64-access marker split, diagnostics and captures against
    /// `BTreeSet`s.
    #[test]
    fn kernels_match_their_definitions(w in arb_window(150), classes in prop::collection::vec(0u8..4, 64..65)) {
        use std::collections::{BTreeMap, BTreeSet};
        let bs = BlockSize::CACHE_LINE;
        for part in [&w[..], &w[..w.len().min(64)], &w[..w.len().min(17)]] {
            prop_assert_eq!(analyze_window(part, bs), spec::analyze_window_naive(part, bs));
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
