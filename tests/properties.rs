//! Property-based tests (proptest) of the core invariants across crates.

#[path = "common/spec.rs"]
mod spec;

use memgaze::analysis::{self, BlockReuse, IntervalTree, NodeKind, ZoomConfig, ZoomRegion};
use memgaze::model::{
    io, Access, AuxAnnotations, BlockSize, Sample, SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::ptsim::{SamplerConfig, StreamSampler};
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = Access> {
    (0u64..64, 0u64..(1 << 16), 0u64..(1 << 20))
        .prop_map(|(ip, addr, t)| Access::new(0x400 + ip * 4, 0x10_0000 + addr * 8, t))
}

fn arb_window(max: usize) -> impl Strategy<Value = Vec<Access>> {
    prop::collection::vec(arb_access(), 0..max).prop_map(|mut v| {
        // Windows are time-ordered.
        v.sort_by_key(|a| a.time);
        v
    })
}

fn arb_trace() -> impl Strategy<Value = SampledTrace> {
    prop::collection::vec(arb_window(200), 0..8).prop_map(|windows| {
        let mut t = SampledTrace::new(TraceMeta::new("prop", 10_000, 8192));
        let mut offset = 0u64;
        for w in windows {
            let shifted: Vec<Access> = w
                .iter()
                .map(|a| Access::new(a.ip, a.addr, a.time + offset))
                .collect();
            let trigger = shifted.last().map_or(offset, |a| a.time + 1);
            t.push_sample(Sample::new(shifted, trigger)).unwrap();
            offset = trigger + 10_000;
        }
        t.meta.total_loads = offset;
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The marker reuse-distance algorithm agrees with the spec's O(n²)
    /// definition.
    #[test]
    fn reuse_distance_matches_oracle(w in arb_window(150)) {
        let fast = analysis::analyze_window(&w, BlockSize::CACHE_LINE);
        let slow = spec::analyze_window_naive(&w, BlockSize::CACHE_LINE);
        prop_assert_eq!(fast, slow);
    }

    /// Footprint is monotone under block coarsening: fewer (or equal)
    /// blocks at bigger block sizes.
    #[test]
    fn footprint_monotone_in_block_size(w in arb_window(200)) {
        let f_byte = analysis::footprint(&w, BlockSize::BYTE);
        let f_word = analysis::footprint(&w, BlockSize::WORD);
        let f_line = analysis::footprint(&w, BlockSize::CACHE_LINE);
        let f_page = analysis::footprint(&w, BlockSize::OS_PAGE);
        prop_assert!(f_byte >= f_word);
        prop_assert!(f_word >= f_line);
        prop_assert!(f_line >= f_page);
        // C + S decomposition always recovers F.
        let cs = analysis::captures_survivals(&w, BlockSize::CACHE_LINE);
        prop_assert_eq!(cs.footprint(), f_line);
    }

    /// Reuse distance never exceeds footprint − 1, and the reuse interval
    /// always bounds the distance from above.
    #[test]
    fn distance_bounded_by_footprint_and_interval(w in arb_window(200)) {
        let r = analysis::analyze_window(&w, BlockSize::CACHE_LINE);
        for e in &r.events {
            prop_assert!(u64::from(e.distance) < r.unique_blocks.max(1));
            prop_assert!(u64::from(e.distance) < e.interval());
        }
    }

    /// The stream sampler never fabricates accesses and never reorders
    /// them.
    #[test]
    fn sampler_subset_and_order(
        addrs in prop::collection::vec(0u64..4096, 1..3000),
        period in 50u64..500,
    ) {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = period;
        cfg.buffer_bytes = 1 << 10;
        let mut s = StreamSampler::new(cfg);
        for (t, a) in addrs.iter().enumerate() {
            s.on_load(memgaze::model::Ip(0x400), 0x1000 + a * 8, true, 1);
            let _ = t;
        }
        let (trace, stats) = s.finish("prop");
        prop_assert_eq!(stats.total_loads, addrs.len() as u64);
        for sample in &trace.samples {
            for acc in &sample.accesses {
                // The access at logical time t must carry the t-th addr.
                let expect = 0x1000 + addrs[acc.time as usize] * 8;
                prop_assert_eq!(acc.addr.raw(), expect);
            }
            // Strictly increasing times inside a sample.
            prop_assert!(sample.accesses.windows(2).all(|p| p[0].time < p[1].time));
        }
    }

    /// Merging per-sample BlockReuse summaries conserves region access
    /// counts.
    #[test]
    fn block_reuse_merge_conserves_accesses(t in arb_trace()) {
        let bs = BlockSize::CACHE_LINE;
        let mut merged = BlockReuse::default();
        let mut total = 0u64;
        for s in &t.samples {
            merged.merge(&BlockReuse::from_samples(std::slice::from_ref(s), bs));
            total += s.accesses.len() as u64;
        }
        prop_assert_eq!(merged.region_accesses(0, u64::MAX), total);
        // Merging sample by sample is the one pass over all of them.
        prop_assert_eq!(merged, BlockReuse::from_samples(&t.samples, bs));
    }

    /// κ/ρ algebra: ρ·κ·A always recovers the loads covered, |σ|·(w+z).
    #[test]
    fn rho_kappa_identity(
        loads in 1u64..100_000_000,
        observed in 1u64..1_000_000,
        implied in 0u64..1_000_000,
    ) {
        let kappa = memgaze::model::compression_ratio(observed, implied);
        let rho = memgaze::model::sample_ratio(loads, observed, kappa);
        let lhs = rho * kappa * observed as f64;
        let rhs = loads as f64;
        prop_assert!((lhs - rhs).abs() / rhs < 1e-9, "{lhs} vs {rhs}");
    }

    /// Window series diagnostics: F_str + F_irr ≥ F restricted to
    /// classified blocks; and ΔF ≤ 1 always.
    #[test]
    fn window_diagnostics_invariants(t in arb_trace()) {
        let annots = AuxAnnotations::new(); // all ips default to Irregular
        let pts = analysis::window_series(&t, &annots, BlockSize::WORD, &[16, 64, 256]);
        for p in &pts {
            prop_assert!(p.delta_f <= 1.0 + 1e-9, "{p:?}");
            prop_assert!(p.f_irr <= p.f + 1e-9);
            prop_assert_eq!(p.f_str, 0.0); // nothing annotated strided
        }
    }

    /// Location-zoom partition soundness: children nest within parents,
    /// never exceed their access counts, and the root covers everything.
    #[test]
    fn zoom_partition_soundness(t in arb_trace()) {
        let symbols = SymbolTable::new();
        let cfg = ZoomConfig::default();
        let summary = BlockReuse::from_samples(&t.samples, cfg.access_block);
        let Some(root) = analysis::zoom_trace_with(&t, &summary, &symbols, None, cfg) else {
            prop_assert_eq!(t.observed_accesses(), 0);
            return Ok(());
        };
        prop_assert_eq!(root.accesses, t.observed_accesses());
        fn check(r: &ZoomRegion) -> Result<(), TestCaseError> {
            let sum: u64 = r.children.iter().map(|c| c.accesses).sum();
            prop_assert!(sum <= r.accesses);
            for c in &r.children {
                prop_assert!(c.lo >= r.lo && c.hi <= r.hi);
                prop_assert!(c.accesses >= 1);
                check(c)?;
            }
            Ok(())
        }
        check(&root)?;
    }

    /// Interval-tree aggregation: the root's accesses equal the sum of
    /// sample windows, its footprint estimate is ρ-scaled, and every
    /// inter node covers exactly its children's time spans.
    #[test]
    fn interval_tree_aggregation(t in arb_trace()) {
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let rho = 5.0;
        let tree = IntervalTree::build(&t, &annots, &symbols, BlockSize::WORD, rho);
        let Some(root) = tree.root() else {
            prop_assert!(t.samples.is_empty());
            return Ok(());
        };
        let node = tree.node(root);
        prop_assert_eq!(node.accesses, t.observed_accesses());
        if t.samples.len() > 1 {
            prop_assert!((node.f_hat - rho * node.diag.footprint as f64).abs() < 1e-9);
        }
        for i in 0..tree.len() {
            let n = tree.node(i);
            if matches!(n.kind, NodeKind::Inter | NodeKind::Root) && !n.children.is_empty() {
                let first = tree.node(n.children[0]);
                let last = tree.node(*n.children.last().unwrap());
                prop_assert_eq!(n.time_range.0, first.time_range.0);
                prop_assert_eq!(n.time_range.1, last.time_range.1);
                let child_acc: u64 = n.children.iter().map(|&c| tree.node(c).accesses).sum();
                prop_assert_eq!(child_acc, n.accesses);
            }
        }
    }

    /// The trace codec is size-monotone: adding a sample never shrinks
    /// the encoding (no pathological interaction in the delta coder).
    #[test]
    fn codec_size_monotone(t in arb_trace()) {
        let full = io::sampled_size_bytes(&t);
        let mut truncated = t.clone();
        if truncated.samples.pop().is_some() {
            let less = io::sampled_size_bytes(&truncated);
            prop_assert!(less <= full, "{less} > {full}");
        }
    }
}
