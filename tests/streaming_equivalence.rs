//! Property-based equivalence of the streaming/sharded ingest path:
//! the sharded v2 container round-trips arbitrary traces; the streaming
//! fold — the one engine — equals the definitional spec
//! (`tests/common/spec.rs`) field for field, bit for bit, for any shard
//! size and block sizes; the location zoom equals the
//! spec's partition tree for tree, and the window series the spec's
//! point for point; and partials of any contiguous split of the frames,
//! merged in frame order, equal the fold.

#[path = "common/arb.rs"]
mod arb;
#[path = "common/spec.rs"]
mod spec;

use arb::{arb_trace, fixtures, traces_of, BLOCK_SIZES};
use memgaze::analysis::{
    analyze_frames, stream_resident_trace, zoom_trace_with, AnalysisConfig, Analyzer, BlockReuse,
    PartialReport, ZoomConfig,
};
use memgaze::model::{
    decode_sharded, encode_sharded, encode_sharded_indexed, AuxAnnotations, BlockSize, ShardReader,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sharded v2 container round-trips arbitrary traces at any
    /// shard size, and the shard iterator re-yields the exact samples.
    #[test]
    fn sharded_container_roundtrips(t in arb_trace(), shard in 1usize..40) {
        let bytes = encode_sharded(&t, shard);
        let back = decode_sharded(&bytes).unwrap();
        prop_assert_eq!(&back, &t);

        let mut reader = ShardReader::new(bytes.as_slice()).unwrap();
        let mut samples = Vec::new();
        for s in reader.by_ref() {
            samples.extend(s.unwrap().samples);
        }
        prop_assert_eq!(&samples, &t.samples);
        prop_assert_eq!(reader.meta(), &t.meta);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fold equals the spec on every field of the report and every
    /// row derived from it, for random traces, shard sizes, worker
    /// counts and block sizes. (The name dates from the resident
    /// analyzer being a second implementation; it reads the fold's
    /// report now, and the reference is the spec.)
    #[test]
    fn streaming_report_matches_resident(
        t in arb_trace(),
        shard in 1usize..24,
        blocks in 0usize..3,
    ) {
        let (annots, symbols) = fixtures();
        let (footprint_block, reuse_block) = BLOCK_SIZES[blocks];
        let cfg = AnalysisConfig {
            footprint_block,
            reuse_block,
            ..AnalysisConfig::default()
        };
        let sizes = [8u64, 32];
        let report = stream_resident_trace(&t, &annots, &symbols, cfg, &sizes, shard);
        let input = spec::Input {
            trace: &t,
            annots: &annots,
            symbols: &symbols,
            footprint_block,
            reuse_block,
        };
        if let Err(e) = spec::check_report(&report, &input, &sizes, shard) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// The location zoom equals its definition — the partition over the
    /// flattened accesses, level by level — tree for tree: shape, `D`,
    /// `#blocks`, and the attributed code with its order among equals;
    /// whether it reads the report's block summary (`access_block ==
    /// reuse_block`) or one of its own, down to page floors at, above
    /// and below the access block.
    #[test]
    fn zoom_matches_spec(
        t in arb_trace(),
        threshold in 0usize..3,
        pages in (0usize..3, 1u8..3, 0usize..2),
        access_block in 0usize..3,
        blocks in 0usize..3,
    ) {
        let (floor, shrink_log2, min_region) = pages;
        let (annots, symbols) = fixtures();
        let (footprint_block, reuse_block) = BLOCK_SIZES[blocks];
        let access_block =
            [BlockSize::WORD, BlockSize::CACHE_LINE, BlockSize::OS_PAGE][access_block];
        let zoom = ZoomConfig {
            access_block,
            min_page_log2: [6, 8, 12][floor],
            shrink_log2,
            hot_threshold_pct: [1.0, 10.0, 40.0][threshold],
            min_region_bytes: [256, 4096][min_region],
            max_depth: 12,
            ..ZoomConfig::default()
        };
        let cfg = AnalysisConfig {
            footprint_block,
            reuse_block,
            zoom,
            ..AnalysisConfig::default()
        };
        let mut input = spec::Input {
            trace: &t,
            annots: &annots,
            symbols: &symbols,
            footprint_block,
            reuse_block,
        };
        let analyzer = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        prop_assert_eq!(analyzer.zoom().cloned(), spec::zoom(&input, zoom));

        // Without the annotation file every source line reads 0.
        let no_annots = AuxAnnotations::new();
        input.annots = &no_annots;
        let summary = BlockReuse::from_samples(&t.samples, access_block);
        prop_assert_eq!(
            zoom_trace_with(&t, &summary, &symbols, None, zoom),
            spec::zoom(&input, zoom)
        );
    }

    /// The window series equals its definition point for point: every
    /// intra-sample size split out of one pass per sample equals its
    /// intervals measured one by one, inter-sample runs are scaled by ρ,
    /// the R2 blind spot stays empty. Sample lengths straddle 1 and
    /// 63/64/65; sizes straddle 1, the half-interval tails, the sample
    /// and the period, with more of them than one pass serves — and
    /// without a period every size chops the samples, up to sizes
    /// longer than any sample.
    #[test]
    fn window_series_matches_spec(
        t in traces_of(straddling_window()),
        sizes in prop::collection::vec(
            prop_oneof![(0..SERIES_SIZES.len()).prop_map(|k| SERIES_SIZES[k]), 1u64..400],
            1..10,
        ),
        blocks in 0usize..3,
        no_period in 0u8..2,
    ) {
        let mut t = t;
        if no_period == 1 {
            t.meta.period = 0;
        }
        let (annots, symbols) = fixtures();
        let (footprint_block, reuse_block) = BLOCK_SIZES[blocks];
        let cfg = AnalysisConfig {
            footprint_block,
            reuse_block,
            ..AnalysisConfig::default()
        };
        let input = spec::Input {
            trace: &t,
            annots: &annots,
            symbols: &symbols,
            footprint_block,
            reuse_block,
        };
        let analyzer = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        prop_assert_eq!(analyzer.window_series(&sizes), spec::window_series(&input, &sizes));
    }

}

/// Window sizes either side of 1, of small intervals and their halves,
/// of the sample lengths [`straddling_window`] draws, and of the period
/// (10 000) and its multiples.
const SERIES_SIZES: [u64; 20] = [
    1, 2, 3, 4, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1_000, 9_999, 10_000, 10_001, 14_999,
    15_000, 40_000,
];

/// A time-ordered window of 0, 1, 2, 31–33, 63–65 or 127–129 accesses.
fn straddling_window() -> impl Strategy<Value = Vec<memgaze::model::Access>> {
    const LENGTHS: [usize; 12] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129];
    let accesses = prop::collection::vec(arb::arb_access(), 129..130);
    (0..LENGTHS.len(), accesses).prop_map(|(k, mut w)| {
        w.truncate(LENGTHS[k]);
        w.sort_by_key(|a| a.time);
        w
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The merge laws: cut an indexed container's frames into 1–8
    /// contiguous parts at random frames (a repeated cut leaves a part
    /// empty), analyze each part on its own, fold the partials in frame
    /// order with `merge_many` and finish — and the report equals the
    /// one-pass fold field for field, its ingest accounting included:
    /// each non-empty shard is one merge event in whichever part reads
    /// it.
    #[test]
    fn partial_merge_matches_resident(
        t in arb_trace(),
        shard in 1usize..8,
        cuts in prop::collection::vec(0usize..64, 0..8),
    ) {
        let (annots, symbols) = fixtures();
        let cfg = AnalysisConfig::default();
        let sizes = [8u64, 32];
        let resident = stream_resident_trace(&t, &annots, &symbols, cfg, &sizes, shard);
        let (container, index) = encode_sharded_indexed(&t, shard);
        let frames = index.entries.len();
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (frames + 1)).collect();
        bounds.extend([0, frames]);
        bounds.sort_unstable();
        let parts = bounds
            .windows(2)
            .map(|r| analyze_frames(&container, &index, r[0]..r[1], &annots, &symbols, cfg, &sizes))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let merged =
            PartialReport::merge_many(parts, cfg.footprint_block, cfg.reuse_block, &sizes).unwrap();
        let report = merged.finish(&t.meta);
        prop_assert_eq!(&report, &resident);
    }
}
